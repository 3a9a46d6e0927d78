package parsum_test

import (
	"math"
	"sync"
	"testing"

	"parsum"
	"parsum/internal/gen"
	"parsum/internal/oracle"
)

func TestPublicSumAgainstOracle(t *testing.T) {
	for _, d := range gen.AllDists {
		xs := gen.New(gen.Config{Dist: d, N: 5000, Delta: 1000, Seed: 1}).Slice()
		want := oracle.Sum(xs)
		if got := parsum.Sum(xs); got != want {
			t.Fatalf("%v: Sum=%g oracle=%g", d, got, want)
		}
		if got := parsum.SumParallel(xs, parsum.Options{Workers: 4, ChunkSize: 256}); got != want {
			t.Fatalf("%v: SumParallel=%g oracle=%g", d, got, want)
		}
		if got := parsum.IFastSum(xs); got != want {
			t.Fatalf("%v: IFastSum=%g oracle=%g", d, got, want)
		}
		if got, st := parsum.SumAdaptive(xs, parsum.Options{}); !st.Certified || !oracle.Faithful(xs, got) {
			t.Fatalf("%v: SumAdaptive=%g not faithful/certified", d, got)
		}
		res := parsum.MapReduceSum(xs, parsum.MRConfig{Workers: 4, SplitSize: 512})
		if res.Sum != want {
			t.Fatalf("%v: MapReduceSum=%g oracle=%g", d, res.Sum, want)
		}
	}
}

// TestSumBelowGrainZeroAlloc pins that Sum on an input too short to split
// (two grains of 2^14 values, less one) runs in the calling goroutine
// from a pooled window and allocates nothing, rounding included.
func TestSumBelowGrainZeroAlloc(t *testing.T) {
	xs := gen.New(gen.Config{Dist: gen.Random, N: 1<<15 - 1, Delta: 2000, Seed: 3}).Slice()
	want := oracle.Sum(xs)
	if avg := testing.AllocsPerRun(20, func() {
		if got := parsum.Sum(xs); got != want {
			t.Fatalf("Sum=%g oracle=%g", got, want)
		}
	}); avg != 0 {
		t.Fatalf("Sum of %d values allocates %.1f times per call, want 0", len(xs), avg)
	}
}

func TestAccumulatorLifecycle(t *testing.T) {
	a := parsum.NewAccumulator()
	a.Add(1e100)
	a.Add(1)
	a.Add(-1e100)
	if got := a.Round(); got != 1 {
		t.Fatalf("Round = %g, want 1", got)
	}
	// Round is non-destructive.
	a.Add(2)
	if got := a.Round(); got != 3 {
		t.Fatalf("Round after more adds = %g, want 3", got)
	}
	b := parsum.NewAccumulator()
	b.Add(0.5)
	a.Merge(b)
	if got := a.Round(); got != 3.5 {
		t.Fatalf("after merge = %g, want 3.5", got)
	}
	// Merge must not consume the source.
	if got := b.Round(); got != 0.5 {
		t.Fatalf("merge source changed: %g", got)
	}
	c := a.Clone()
	a.Reset()
	if got := a.Round(); got != 0 {
		t.Fatalf("after reset = %g", got)
	}
	if got := c.Round(); got != 3.5 {
		t.Fatalf("clone = %g, want 3.5", got)
	}
}

func TestEnginesListing(t *testing.T) {
	infos := parsum.Engines()
	if len(infos) < 5 {
		t.Fatalf("Engines() lists %d engines, want >= 5", len(infos))
	}
	byName := map[string]parsum.EngineInfo{}
	for i, e := range infos {
		if i > 0 && infos[i-1].Name >= e.Name {
			t.Fatalf("Engines() not sorted at %q", e.Name)
		}
		if e.Doc == "" {
			t.Fatalf("engine %q has no doc line", e.Name)
		}
		byName[e.Name] = e
	}
	for _, name := range []string{"dense", "sparse", "adaptive", "ifastsum", "small", "naive"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("engine %q missing from Engines()", name)
		}
	}
	if d := byName["dense"]; !d.Exact || !d.CorrectlyRounded || !d.DeterministicParallel || !d.Streaming {
		t.Fatalf("dense caps wrong: %+v", d)
	}
	if n := byName["naive"]; n.Exact || n.Faithful {
		t.Fatalf("naive caps wrong: %+v", n)
	}
	if a := byName["adaptive"]; !a.Faithful || a.CorrectlyRounded {
		t.Fatalf("adaptive caps wrong: %+v", a)
	}
}

func TestOptionsEngineSelection(t *testing.T) {
	xs := gen.New(gen.Config{Dist: gen.SumZero, N: 20000, Delta: 1200, Seed: 6}).Slice()
	want := oracle.Sum(xs)
	for _, e := range parsum.Engines() {
		if !e.CorrectlyRounded {
			continue
		}
		got := parsum.SumParallel(xs, parsum.Options{Engine: e.Name, Workers: 4, ChunkSize: 512})
		if got != want {
			t.Fatalf("engine %q: SumParallel=%g oracle=%g", e.Name, got, want)
		}
		if got := parsum.SumEngine(e.Name, xs); got != want {
			t.Fatalf("engine %q: SumEngine=%g oracle=%g", e.Name, got, want)
		}
	}
}

func TestNewAccumulatorEngine(t *testing.T) {
	xs := gen.New(gen.Config{Dist: gen.Random, N: 4000, Delta: 900, Seed: 7}).Slice()
	want := oracle.Sum(xs)
	for _, e := range parsum.Engines() {
		if !e.Streaming {
			continue
		}
		acc, err := parsum.NewAccumulatorEngine(e.Name)
		if err != nil {
			t.Fatalf("engine %q: %v", e.Name, err)
		}
		acc.AddSlice(xs[:1000])
		other, _ := parsum.NewAccumulatorEngine(e.Name)
		other.AddSlice(xs[1000:])
		acc.Merge(other)
		if got := acc.Round(); got != want {
			t.Fatalf("engine %q: streamed sum %g, oracle %g", e.Name, got, want)
		}
	}
	if _, err := parsum.NewAccumulatorEngine("no-such-engine"); err == nil {
		t.Fatal("unknown engine: expected error")
	}
	if _, err := parsum.NewAccumulatorEngine("ifastsum"); err == nil {
		t.Fatal("non-streaming engine: expected error")
	}
}

func TestAccumulatorRound32(t *testing.T) {
	// 1 + 2^-25 rounds to 1f in a single binary32 rounding; summing to
	// float64 first then converting would keep the exact value and also
	// land on 1f — use a sum that straddles a binary32 boundary instead:
	// 1 + 2^-24 + 2^-50 must round UP to the next float32 (sticky bit),
	// while float32(float64 value) double-rounds to even and stays at 1.
	a := parsum.NewAccumulator()
	for _, x := range []float64{1, 0x1p-24, 0x1p-50} {
		a.Add(x)
	}
	want := float32(1) + float32(0x1p-23)
	if got := a.Round32(); got != want {
		t.Fatalf("Round32 = %x, want %x (no double rounding)", got, want)
	}
}

func TestPublicDocExamples(t *testing.T) {
	// The classic motivating example: naive summation loses the 1.
	xs := []float64{1e100, 1, -1e100}
	var naive float64
	for _, x := range xs {
		naive += x
	}
	if naive == 1 {
		t.Skip("platform summed exactly?")
	}
	if got := parsum.Sum(xs); got != 1 {
		t.Fatalf("Sum = %g, want 1", got)
	}
	if got := parsum.ConditionNumber(xs); !(got > 1e99) {
		t.Fatalf("ConditionNumber = %g", got)
	}
	if got := parsum.ConditionNumber(nil); got != 1 {
		t.Fatalf("ConditionNumber(nil) = %g", got)
	}
	if got := parsum.ConditionNumber([]float64{1, -1}); !math.IsInf(got, 1) {
		t.Fatalf("ConditionNumber(zero sum) = %g", got)
	}
}

func TestShardedPublicAPI(t *testing.T) {
	xs := gen.New(gen.Config{Dist: gen.Random, N: 12000, Delta: 1200, Seed: 19}).Slice()
	want := oracle.Sum(xs)

	s, err := parsum.NewSharded(parsum.ShardedOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wr := s.Writer()
			for i := w; i < len(xs); i += 8 {
				if i%2 == 0 {
					wr.Add(xs[i])
				} else {
					s.Add(xs[i])
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Sum(); got != want {
		t.Fatalf("Sharded.Sum=%g oracle=%g", got, want)
	}
	if got := s.Snapshot(); got != want {
		t.Fatalf("Snapshot after Sum diverged: %g", got)
	}

	// Merge two sharded accumulators built from disjoint halves.
	a, _ := parsum.NewSharded(parsum.ShardedOptions{Engine: "sparse"})
	b, _ := parsum.NewSharded(parsum.ShardedOptions{Engine: "sparse"})
	a.AddBatch(xs[:len(xs)/2])
	b.AddBatch(xs[len(xs)/2:])
	a.Merge(b)
	if got := a.Sum(); got != want {
		t.Fatalf("merged Sharded.Sum=%g oracle=%g", got, want)
	}

	a.Reset()
	if got := a.Sum(); got != 0 {
		t.Fatalf("Sum after Reset = %g", got)
	}

	if _, err := parsum.NewSharded(parsum.ShardedOptions{Engine: "pairwise"}); err == nil {
		t.Fatal("NewSharded accepted a non-deterministic engine")
	}
	if _, err := parsum.NewSharded(parsum.ShardedOptions{Engine: "nope"}); err == nil {
		t.Fatal("NewSharded accepted an unknown engine")
	}
}
