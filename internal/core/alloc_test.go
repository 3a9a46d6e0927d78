package core

import (
	"testing"

	"parsum/internal/accum"
	"parsum/internal/gen"
)

// TestParallelChunkLoopZeroAlloc asserts the parallel hot path's per-chunk
// work — pulling ranges off the shared cursor and bulk-accumulating them —
// allocates nothing once a worker holds its pooled accumulator. Goroutine
// spawn and pool traffic are excluded: they are per-call, not per-chunk.
func TestParallelChunkLoopZeroAlloc(t *testing.T) {
	xs := gen.New(gen.Config{Dist: gen.Random, N: 1 << 14, Delta: 2000, Seed: 5}).Slice()
	d := getDense(0)
	defer putDense(d)
	cur := &chunkCursor{chunk: 1 << 12, n: len(xs)}
	if avg := testing.AllocsPerRun(10, func() {
		cur.next.Store(0)
		for {
			lo, hi, ok := cur.take()
			if !ok {
				break
			}
			d.AddSlice(xs[lo:hi])
		}
	}); avg != 0 {
		t.Fatalf("parallel chunk loop allocates %.1f times per drain, want 0", avg)
	}
}

// TestMergeTreeZeroAlloc pins that the merge tree runs in the caller: over
// pre-built partials it starts no goroutine and allocates nothing.
func TestMergeTreeZeroAlloc(t *testing.T) {
	xs := gen.New(gen.Config{Dist: gen.Random, N: 1 << 12, Delta: 2000, Seed: 6}).Slice()
	const per = 256
	built := make([]*accum.Window, len(xs)/per)
	parts := make([]*accum.Window, len(built))
	for i := range built {
		built[i] = accum.NewFullWindow(0)
		built[i].AddSlice(xs[i*per : (i+1)*per])
		built[i].Regularize()
		parts[i] = accum.NewFullWindow(0)
	}
	merge := func(dst, src *accum.Window) *accum.Window { dst.AddRegularized(src); return dst }
	for _, p := range []int{2, 3, len(built)} {
		var root *accum.Window
		if avg := testing.AllocsPerRun(20, func() {
			// The tree folds into its inputs; refill them from the
			// pre-built partials, which full-range windows do in place.
			for i := range parts[:p] {
				parts[i].Reset()
				parts[i].AddRegularized(built[i])
			}
			root = MergeTree(parts[:p], merge)
		}); avg != 0 {
			t.Fatalf("MergeTree over %d parts allocates %.1f times per call, want 0", p, avg)
		}
		if got, want := root.Round(), Sum(xs[:p*per]); got != want {
			t.Fatalf("MergeTree over %d parts rounds to %g, want %g", p, got, want)
		}
	}
}

// TestWorkersCappedAtChunkCount pins that a worker count above the chunk
// count costs nothing: Workers 64 on a two-chunk input starts two
// workers, so it allocates no more than Workers 2.
func TestWorkersCappedAtChunkCount(t *testing.T) {
	xs := gen.New(gen.Config{Dist: gen.Random, N: 2 * minAutoChunk, Delta: 2000, Seed: 7}).Slice()
	want := Sum(xs)
	allocs := func(workers int) float64 {
		return testing.AllocsPerRun(50, func() {
			if got := SumParallel(xs, Options{Workers: workers}); got != want {
				t.Fatalf("Workers %d: %g, want %g", workers, got, want)
			}
		})
	}
	two, many := allocs(2), allocs(64)
	t.Logf("allocations per call: Workers 2: %.1f, Workers 64: %.1f", two, many)
	if many > two {
		t.Fatalf("Workers 64 on two chunks allocates %.1f times per call, Workers 2 %.1f", many, two)
	}
}
