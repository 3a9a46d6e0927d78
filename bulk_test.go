package parsum_test

// Bit-identity of the public bulk entry points against the math/big
// oracle: the float32 slice calls, the sharded batch and batches calls,
// the writer-pinned batch calls, and the keyed range export. Each runs an
// engine's bulk pass underneath — the call-scoped lanes of the
// superaccumulators, or element-wise widening for engines without a
// float32 path.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"parsum"
	"parsum/internal/gen"
	"parsum/internal/oracle"
)

// bulkEngines are the invertible exact engines.
var bulkEngines = []string{"dense", "sparse", "small"}

// wide32 returns n seeded normal float32s spread over 2^±100.
func wide32(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = float32(math.Ldexp(rng.Float64()*2-1, rng.Intn(200)-100))
	}
	return xs
}

func widen(xs []float32) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// oracle32 is the binary32 rounding (nearest, ties to even) of the exact
// sum of xs.
func oracle32(xs []float64) float32 {
	f, _ := oracle.SumBig(xs).Float32()
	return f
}

func TestAccumulatorSlice32MatchesOracle(t *testing.T) {
	xs := wide32(1000, 41)
	wide := widen(xs)
	k := len(xs) / 3
	for _, name := range bulkEngines {
		a, err := parsum.NewAccumulatorEngine(name)
		if err != nil {
			t.Fatal(err)
		}
		a.AddSlice32(xs)
		a.SubSlice32(xs[:k])
		if got, want := a.Round(), oracle.Sum(wide[k:]); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: AddSlice32/SubSlice32 rounds to %x, oracle %x", name, math.Float64bits(got), math.Float64bits(want))
		}
		if name == "dense" {
			if got, want := a.Round32(), oracle32(wide[k:]); math.Float32bits(got) != math.Float32bits(want) {
				t.Errorf("dense: Round32 %x, oracle %x", math.Float32bits(got), math.Float32bits(want))
			}
		}
	}
	if got, want := parsum.Sum32(xs), oracle32(wide); math.Float32bits(got) != math.Float32bits(want) {
		t.Errorf("Sum32 %x, oracle %x", math.Float32bits(got), math.Float32bits(want))
	}
}

func TestShardedBatchPathsMatchOracle(t *testing.T) {
	xs := gen.New(gen.Config{Dist: gen.Random, N: 6000, Delta: 2000, Seed: 23}).Slice()
	a, b, c := xs[:2000], xs[2000:4000], xs[4000:]
	net := slices.Concat(a[50:], b[500:], c[700:])
	want := oracle.Sum(net)
	for _, name := range bulkEngines {
		s, err := parsum.NewSharded(parsum.ShardedOptions{Engine: name, Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		if s.Engine() != name || s.NumShards() != 3 {
			t.Fatalf("%s: Engine %q, NumShards %d", name, s.Engine(), s.NumShards())
		}
		s.AddBatches([][]float64{a, nil, b})
		s.AddBatches(nil)
		w := s.Writer()
		w.AddBatch(c)
		s.SubBatches([][]float64{b[:500], nil})
		w.SubBatch(c[:700])
		for _, x := range a[:50] {
			s.Sub(x)
		}
		if got := s.Sum(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: batch paths sum to %x, oracle %x", name, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

func TestKeyedRangeAndExportAll(t *testing.T) {
	data := map[string][]float64{
		"a": gen.New(gen.Config{Dist: gen.Random, N: 700, Delta: 2000, Seed: 31}).Slice(),
		"b": gen.New(gen.Config{Dist: gen.SumZero, N: 900, Delta: 300, Seed: 32}).Slice(),
		"c": {1e300, 1, -1e300},
		"d": gen.New(gen.Config{Dist: gen.Anderson, N: 500, Delta: 50, Seed: 33}).Slice(),
	}
	k, err := parsum.NewKeyed(parsum.KeyedOptions{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	for key, xs := range data {
		k.Add(key, xs)
	}
	if got := k.KeysRange("b", "d"); !slices.Equal(got, []string{"b", "c"}) {
		t.Errorf("KeysRange(b, d) = %v", got)
	}
	if got := k.KeysRange("c", ""); !slices.Equal(got, []string{"c", "d"}) {
		t.Errorf("KeysRange(c, \"\") = %v", got)
	}
	blob, err := k.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	r, _ := parsum.NewKeyed(parsum.KeyedOptions{Partitions: 2})
	if err := r.ImportMerge(blob); err != nil {
		t.Fatal(err)
	}
	for key, xs := range data {
		got, ok := r.Sum(key)
		if want := oracle.Sum(xs); !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("imported %q: %x (present %t), oracle %x", key, math.Float64bits(got), ok, math.Float64bits(want))
		}
	}
}
