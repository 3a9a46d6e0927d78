package parsum_test

import (
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"parsum"
	"parsum/internal/engine"
	"parsum/internal/gen"
	"parsum/internal/oracle"
	"parsum/internal/proxy"
	"parsum/internal/sumdsrv"
)

// TestAccumulatorBinaryRoundTrip: the public marshal surface — encode a
// partial, decode into a zero Accumulator, and the exact value (and the
// backing engine) survives.
func TestAccumulatorBinaryRoundTrip(t *testing.T) {
	for _, eng := range []string{"dense", "sparse", "small"} {
		acc, err := parsum.NewAccumulatorEngine(eng)
		if err != nil {
			t.Fatal(err)
		}
		xs := gen.New(gen.Config{Dist: gen.SumZero, N: 3000, Delta: 1200, Seed: 31}).Slice()
		acc.AddSlice(xs[:1500])

		blob, err := acc.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		var back parsum.Accumulator
		if err := back.UnmarshalBinary(blob); err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if back.Engine() != eng {
			t.Fatalf("engine %q decoded as %q", eng, back.Engine())
		}
		// The decoded accumulator keeps accumulating and merging exactly.
		back.AddSlice(xs[1500:])
		want := oracle.Sum(xs)
		if got := back.Round(); got != want {
			t.Fatalf("%s: resumed sum=%g oracle=%g", eng, got, want)
		}
		other, err := parsum.NewAccumulatorEngine(eng)
		if err != nil {
			t.Fatal(err)
		}
		other.Merge(&back)
		if got := other.Round(); got != want {
			t.Fatalf("%s: merge of decoded=%g oracle=%g", eng, got, want)
		}
	}
}

// TestAccumulatorMergeMixedEnginesPanics pins the documented failure mode
// for merging a decoded partial of a different engine: a clear panic, not
// a representation-level type assertion.
func TestAccumulatorMergeMixedEnginesPanics(t *testing.T) {
	dense := parsum.NewAccumulator()
	small, err := parsum.NewAccumulatorEngine("small")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := small.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var decoded parsum.Accumulator
	if err := decoded.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Merge of mixed engines did not panic")
		}
	}()
	dense.Merge(&decoded)
}

func TestAccumulatorUnmarshalRejectsGarbage(t *testing.T) {
	var a parsum.Accumulator
	for _, data := range [][]byte{nil, {0}, {0xC7}, {0xC7, 1, 5, 'x'}, make([]byte, 64)} {
		if err := a.UnmarshalBinary(data); err == nil {
			t.Errorf("garbage % x accepted", data)
		}
	}
}

// TestShardedWireExchange: the public distributed story end to end in one
// process — worker Shardeds export SnapshotBytes, a reducer Sharded merges
// them, and the result carries the oracle's exact bits.
func TestShardedWireExchange(t *testing.T) {
	xs := gen.New(gen.Config{Dist: gen.Random, N: 20000, Delta: 1500, Seed: 32}).Slice()
	reducer, err := parsum.NewSharded(parsum.ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 5
	per := len(xs) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*per, (w+1)*per
		if w == workers-1 {
			hi = len(xs)
		}
		worker, err := parsum.NewSharded(parsum.ShardedOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		worker.AddBatch(xs[lo:hi])
		blob, err := worker.SnapshotBytes()
		if err != nil {
			t.Fatal(err)
		}
		if err := reducer.MergeBytes(blob); err != nil {
			t.Fatal(err)
		}
	}
	want := parsum.Sum(xs)
	got := reducer.Sum()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("distributed=%g (bits %x) sequential=%g (bits %x)",
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// fuzzSeed returns the value a checked-in one-argument []byte fuzz corpus
// file holds.
func fuzzSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s: not a []byte corpus file", path)
	}
	v, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(v)
}

// TestRetiredLargeEngineRejected: the large engine and its 'L' codec kind
// are gone, with no alias. Its name, and the bytes it encoded before its
// removal (kept as fuzz seeds), fail with the registry's unknown-engine
// error listing the registered engines; an 'L' payload under a surviving
// engine's name fails its codec. Nothing panics.
func TestRetiredLargeEngineRejected(t *testing.T) {
	unknown := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: accepted the retired large engine", what)
		}
		msg := err.Error()
		if !strings.Contains(msg, `unknown engine "large"`) {
			t.Errorf("%s: error %q does not name the unknown engine", what, msg)
		}
		for _, info := range parsum.Engines() {
			if !strings.Contains(msg, info.Name) {
				t.Errorf("%s: error %q does not list registered engine %q", what, msg, info.Name)
			}
		}
	}
	_, err := parsum.NewAccumulatorEngine("large")
	unknown("NewAccumulatorEngine", err)
	if srv, err := sumdsrv.New(sumdsrv.Options{Engine: "large"}); err == nil {
		srv.Close()
		t.Fatal("sumdsrv.New accepted the retired large engine")
	} else {
		unknown("sumdsrv.New", err)
	}
	if p, err := proxy.New(proxy.Options{Backends: []string{"http://127.0.0.1:1"}, Engine: "large"}); err == nil {
		p.Close()
		t.Fatal("proxy.New accepted the retired large engine")
	} else {
		unknown("proxy.New", err)
	}

	partial := fuzzSeed(t, "internal/engine/testdata/fuzz/FuzzPartialWire/partial-large")
	_, _, err = engine.UnmarshalPartial(partial)
	unknown("engine.UnmarshalPartial", err)
	var acc parsum.Accumulator
	unknown("Accumulator.UnmarshalBinary", acc.UnmarshalBinary(partial))

	// A one-key keyed envelope: magic, version, engine name, one entry.
	payload := fuzzSeed(t, "internal/accum/testdata/fuzz/FuzzCodecRoundTrip/payload-large")
	envelope := func(name string) []byte {
		b := append([]byte{0xC9, 1, byte(len(name))}, name...)
		b = append(b, 1, 1, 'k', byte(len(payload)))
		return append(b, payload...)
	}
	for _, name := range []string{"dense", "sparse", "small"} {
		k, err := parsum.NewKeyed(parsum.KeyedOptions{Engine: name})
		if err != nil {
			t.Fatal(err)
		}
		if name == "dense" {
			unknown("Keyed.ImportMerge", k.ImportMerge(envelope("large")))
		}
		// The 'L' payload under a surviving name: every codec rejects the
		// retired kind, and the store stays empty.
		if err := k.ImportMerge(envelope(name)); err == nil {
			t.Errorf("%s: keyed envelope with an 'L' payload accepted", name)
		}
		blob := append([]byte{0xC7, 1, byte(len(name))}, name...)
		if _, _, err := engine.UnmarshalPartial(append(blob, payload...)); err == nil {
			t.Errorf("%s: partial with an 'L' payload accepted", name)
		}
		if n := k.Len(); n != 0 {
			t.Errorf("%s: rejected envelopes left %d keys", name, n)
		}
	}
}
