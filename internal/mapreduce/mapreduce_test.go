package mapreduce

import (
	"math"
	"testing"
	"time"

	"parsum/internal/gen"
	"parsum/internal/oracle"
)

var allKinds = []AccKind{SparseAcc, SmallAcc}

func TestRunExactOnDistributions(t *testing.T) {
	for _, d := range gen.AllDists {
		xs := gen.New(gen.Config{Dist: d, N: 50000, Delta: 1200, Seed: 41}).Slice()
		want := oracle.Sum(xs)
		for _, kind := range allKinds {
			res := Run(xs, Config{Workers: 4, SplitSize: 4096, Acc: kind})
			if res.Sum != want {
				t.Fatalf("%v/%v: got %g want %g", d, kind, res.Sum, want)
			}
		}
	}
}

func TestRunDeterministicAcrossClusterSizes(t *testing.T) {
	xs := gen.New(gen.Config{Dist: gen.Random, N: 100000, Delta: 1800, Seed: 5}).Slice()
	want := Run(xs, Config{Workers: 1, SplitSize: 1 << 12}).Sum
	for _, w := range []int{2, 4, 8, 32} {
		for _, kind := range allKinds {
			got := Run(xs, Config{Workers: w, SplitSize: 1 << 12, Acc: kind}).Sum
			if got != want {
				t.Fatalf("workers=%d kind=%v: %g != %g", w, kind, got, want)
			}
		}
	}
}

func TestNoCombineShufflesRawRecords(t *testing.T) {
	// Splits must be large enough that one accumulator payload beats raw
	// records for every kind (a small payload ships its whole digit range).
	xs := gen.New(gen.Config{Dist: gen.Random, N: 40000, Delta: 300, Seed: 6}).Slice()
	want := oracle.Sum(xs)
	for _, kind := range allKinds {
		withC := Run(xs, Config{Workers: 4, SplitSize: 4096, Acc: kind})
		without := Run(xs, Config{Workers: 4, SplitSize: 4096, Acc: kind, NoCombine: true})
		if withC.Sum != want || without.Sum != want {
			t.Fatalf("%v: combine=%g nocombine=%g want %g", kind, withC.Sum, without.Sum, want)
		}
		if without.Stats.ShuffleBytes <= withC.Stats.ShuffleBytes {
			t.Fatalf("%v: combiner should shrink shuffle volume (%d vs %d bytes)",
				kind, withC.Stats.ShuffleBytes, without.Stats.ShuffleBytes)
		}
		// With a combiner, shuffle records = #splits.
		if withC.Stats.ShuffleRecords != withC.Stats.Splits {
			t.Fatalf("%v: %d shuffle records for %d splits",
				kind, withC.Stats.ShuffleRecords, withC.Stats.Splits)
		}
	}
}

func TestMakespanModel(t *testing.T) {
	durs := []time.Duration{4, 3, 3, 2, 2, 2} // greedy on 2 workers → 8
	if got := makespan(durs, 2); got != 8 {
		t.Fatalf("makespan = %d, want 8", got)
	}
	if got := makespan(durs, 1); got != 16 {
		t.Fatalf("serial makespan = %d, want 16", got)
	}
	if got := makespan(durs, 100); got != 4 {
		t.Fatalf("wide makespan = %d, want max task = 4", got)
	}
	if got := makespan(nil, 4); got != 0 {
		t.Fatalf("empty makespan = %d", got)
	}
}

func TestClusterTimeShrinksWithWorkers(t *testing.T) {
	// With many equal splits, the modeled map makespan must scale ~1/w.
	// Judging it on one run's own recorded task durations keeps host
	// noise out of the check: greedy list scheduling on w workers lands
	// between the perfect split and one task more, sum/w ≤ makespan ≤
	// sum/w + max, and on one worker it is exactly the sum.
	xs := gen.New(gen.Config{Dist: gen.CondOne, N: 1 << 18, Delta: 200, Seed: 8}).Slice()
	const w = 8
	st := Run(xs, Config{Workers: w, SplitSize: 1 << 12}).Stats
	if len(st.MapTasks) != st.Splits || st.Splits != 64 {
		t.Fatalf("%d map task durations for %d splits, want 64", len(st.MapTasks), st.Splits)
	}
	var sum, longest time.Duration
	for _, d := range st.MapTasks {
		sum += d
		longest = max(longest, d)
	}
	if lo, hi := sum/w, sum/w+longest; st.MapMakespan < lo || st.MapMakespan > hi || st.MapMakespan < longest {
		t.Fatalf("%d-worker map makespan %v outside the greedy bounds [max(%v, %v), %v]", w, st.MapMakespan, lo, longest, hi)
	}
	if got := makespan(st.MapTasks, 1); got != sum {
		t.Fatalf("1-worker makespan %v, want the task sum %v", got, sum)
	}
}

func TestSpecialsPropagate(t *testing.T) {
	xs := []float64{1, 2, math.Inf(1), 3}
	for _, kind := range allKinds {
		res := Run(xs, Config{Workers: 2, SplitSize: 2, Acc: kind})
		if !math.IsInf(res.Sum, 1) {
			t.Fatalf("%v: got %g want +Inf", kind, res.Sum)
		}
	}
	xs = []float64{math.Inf(1), math.Inf(-1)}
	for _, kind := range allKinds {
		res := Run(xs, Config{Workers: 2, SplitSize: 1, Acc: kind})
		if !math.IsNaN(res.Sum) {
			t.Fatalf("%v: got %g want NaN", kind, res.Sum)
		}
	}
}

func TestEmptyAndTinyInputs(t *testing.T) {
	for _, kind := range allKinds {
		if res := Run(nil, Config{Acc: kind}); res.Sum != 0 {
			t.Fatalf("%v: empty sum = %g", kind, res.Sum)
		}
		if res := Run([]float64{1.25}, Config{Workers: 16, Acc: kind}); res.Sum != 1.25 {
			t.Fatalf("%v: singleton = %g", kind, res.Sum)
		}
	}
}

func TestReducerCountIndependence(t *testing.T) {
	xs := gen.New(gen.Config{Dist: gen.SumZero, N: 30000, Delta: 900, Seed: 10}).Slice()
	for _, p := range []int{1, 3, 7, 64} {
		res := Run(xs, Config{Workers: 4, Reducers: p, SplitSize: 512})
		if res.Sum != 0 {
			t.Fatalf("p=%d: got %g want 0", p, res.Sum)
		}
		if res.Stats.Reducers != p {
			t.Fatalf("p=%d not honored", p)
		}
	}
}

func TestSeedChangesAssignmentNotResult(t *testing.T) {
	xs := gen.New(gen.Config{Dist: gen.Anderson, N: 20000, Delta: 100, Seed: 11}).Slice()
	want := oracle.Sum(xs)
	for seed := uint64(0); seed < 5; seed++ {
		res := Run(xs, Config{Workers: 4, SplitSize: 512, Seed: seed})
		if res.Sum != want {
			t.Fatalf("seed %d changed result: %g != %g", seed, res.Sum, want)
		}
	}
}

func TestFinalComponentsTracksSigma(t *testing.T) {
	// Narrow-δ data: few active components; wide-δ: many.
	narrow := gen.New(gen.Config{Dist: gen.Random, N: 20000, Delta: 10, Seed: 12}).Slice()
	wide := gen.New(gen.Config{Dist: gen.Random, N: 20000, Delta: 2000, Seed: 12}).Slice()
	rn := Run(narrow, Config{Workers: 2, SplitSize: 4096, Acc: SparseAcc})
	rw := Run(wide, Config{Workers: 2, SplitSize: 4096, Acc: SparseAcc})
	if rn.Stats.FinalComponents >= rw.Stats.FinalComponents {
		t.Fatalf("σ(narrow)=%d should be < σ(wide)=%d",
			rn.Stats.FinalComponents, rw.Stats.FinalComponents)
	}
}
