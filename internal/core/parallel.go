package core

import (
	"sync"
	"sync/atomic"

	"parsum/internal/accum"
	"parsum/internal/engine"
)

// The parallel hot path: workers pull fixed-size chunks off a shared
// atomic cursor, accumulate them exactly into pooled per-worker
// superaccumulators, and the partials combine in a log-depth merge tree.
// Because every partial is exact, none of this — pool reuse, chunk size,
// merge shape — can change the result; it only changes the speed.

const (
	minAutoChunk    = 1 << 12
	maxAutoChunk    = 1 << 17
	chunksPerWorker = 8
)

// AutoChunk returns the chunk size the parallel paths use when
// Options.ChunkSize is zero: about chunksPerWorker chunks per worker so
// the dynamic scheduler can balance uneven progress, bounded below so the
// per-chunk scheduling cost stays negligible and above so a chunk's
// working set stays cache-resident. Exported so the benchmark harness can
// record the effective tuning alongside its measurements.
func AutoChunk(n, workers int) int {
	if workers < 1 {
		workers = 1
	}
	c := n / (workers * chunksPerWorker)
	if c < minAutoChunk {
		return minAutoChunk
	}
	if c > maxAutoChunk {
		return maxAutoChunk
	}
	return c
}

// densePools recycles full-range windows, one pool per digit width.
// Pre-sizing to the whole digit range means no lane drain or merge ever
// regrows a pooled window, so reusing one across chunks, workers, and
// SumParallel calls keeps the hot path allocation-free after warm-up.
var densePools [accum.MaxWidth + 1]sync.Pool

func getDense(w uint) *accum.Window {
	w = accum.CheckedWidth(w)
	if v := densePools[w].Get(); v != nil {
		d := v.(*accum.Window)
		d.Reset()
		return d
	}
	return accum.NewFullWindow(w)
}

func putDense(d *accum.Window) { densePools[d.Width()].Put(d) }

// chunkCursor hands out half-open element ranges of an n-element input in
// chunk-sized steps, safely from any number of goroutines.
type chunkCursor struct {
	next  atomic.Int64
	chunk int
	n     int
}

func (c *chunkCursor) take() (lo, hi int, ok bool) {
	lo = int(c.next.Add(int64(c.chunk))) - c.chunk
	if lo >= c.n {
		return 0, 0, false
	}
	hi = lo + c.chunk
	if hi > c.n {
		hi = c.n
	}
	return lo, hi, true
}

// fanOut runs p workers over a shared chunk cursor on xs; each worker
// produces one partial via the worker function (which pulls ranges off
// cur until it is drained).
func fanOut[T any](xs []float64, p, chunk int, worker func(cur *chunkCursor) T) []T {
	cur := &chunkCursor{chunk: chunk, n: len(xs)}
	parts := make([]T, p)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			parts[w] = worker(cur)
		}(w)
	}
	wg.Wait()
	return parts
}

// MergeTree reduces partials in ⌈log2 p⌉ parallel levels (replacing the
// linear merge chain): level k combines parts[i] with parts[i+half] for
// all i concurrently. merge must be safe to run on disjoint pairs in
// parallel and may consume its second argument. Exported so other layers
// that hold exact partials (the sharded ingestion layer in
// internal/shard) combine them through the same log-depth Lemma 1 tree.
// parts must be non-empty; the slice is clobbered.
func MergeTree[T any](parts []T, merge func(dst, src T) T) T {
	for len(parts) > 1 {
		half := (len(parts) + 1) / 2
		var wg sync.WaitGroup
		for i := 0; i+half < len(parts); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				parts[i] = merge(parts[i], parts[i+half])
			}(i)
		}
		wg.Wait()
		parts = parts[:half]
	}
	return parts[0]
}

// parallelDense is the parallel path of the dense and sparse engine. It
// fans chunk accumulation out to p goroutines over pooled
// full-range windows, then combines the regularized partials in a
// log-depth tree of Lemma 1 carry-free merges (AddRegularized leaves its
// result regularized, so levels compose). Consumed partials return to the
// pool as soon as they are merged.
func parallelDense(xs []float64, p, chunk int, width uint) float64 {
	parts := fanOut(xs, p, chunk, func(cur *chunkCursor) *accum.Window {
		d := getDense(width)
		for {
			lo, hi, ok := cur.take()
			if !ok {
				break
			}
			d.AddSlice(xs[lo:hi])
		}
		d.Regularize()
		return d
	})
	root := MergeTree(parts, func(dst, src *accum.Window) *accum.Window {
		dst.AddRegularized(src)
		putDense(src)
		return dst
	})
	v := root.Round()
	putDense(root)
	return v
}

// parallelEngine is the generic parallel path for any registered engine
// whose capabilities promise a streaming accumulator with deterministic
// (exact) merges: per-worker accumulators over the shared chunk cursor,
// then the same log-depth merge tree through the engine interface.
func parallelEngine(xs []float64, e engine.Engine, p, chunk int) float64 {
	parts := fanOut(xs, p, chunk, func(cur *chunkCursor) engine.Accumulator {
		a := e.NewAccumulator()
		for {
			lo, hi, ok := cur.take()
			if !ok {
				break
			}
			a.AddSlice(xs[lo:hi])
		}
		return a
	})
	return MergeTree(parts, func(dst, src engine.Accumulator) engine.Accumulator {
		dst.Merge(src)
		return dst
	}).Round()
}
