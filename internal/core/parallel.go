package core

import (
	"sync"
	"sync/atomic"

	"parsum/internal/accum"
	"parsum/internal/engine"
)

// The parallel hot path: workers pull fixed-size chunks off a shared
// atomic cursor, accumulate them exactly into pooled per-worker
// superaccumulators, and the partials combine in a log-depth merge tree
// run by the caller. Because every partial is exact, none of this — pool
// reuse, worker count, chunk size, merge shape — can change the result;
// it only changes the speed.

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

// fanOut runs p workers over a shared cursor on an n-element input, one
// of them in the calling goroutine; each worker produces one partial via
// the worker function (which pulls ranges off cur until it is drained).
// It takes the element count, not the slice, so float64 and float32
// leaves share it. p must be at least 1 and at most the chunk count
// (Options.plan caps it), so no worker starts with nothing to take.
func fanOut[T any](n, p, chunk int, worker func(cur *chunkCursor) T) []T {
	cur := &chunkCursor{chunk: chunk, n: n}
	parts := make([]T, p)
	var wg sync.WaitGroup
	wg.Add(p - 1)
	for w := 1; w < p; w++ {
		go func(w int) {
			defer wg.Done()
			parts[w] = worker(cur)
		}(w)
	}
	parts[0] = worker(cur)
	wg.Wait()
	return parts
}

// MergeTree reduces partials in ⌈log2 p⌉ levels: level k folds
// parts[i+half] into parts[i] for every i. It runs every merge in the
// calling goroutine: a Lemma 1 merge of two windows takes less time than
// handing the pair to a goroutine (DESIGN.md §3), and merges are exact,
// so neither the pairing nor the order can change the bits. merge may
// consume its second argument. Exported so other layers that hold exact
// partials (the sharded ingestion layer in internal/shard, the sliding
// window in internal/stream) combine them through the same tree. parts
// must be non-empty; the slice is clobbered.
func MergeTree[T any](parts []T, merge func(dst, src T) T) T {
	for len(parts) > 1 {
		half := (len(parts) + 1) / 2
		for i := 0; i+half < len(parts); i++ {
			parts[i] = merge(parts[i], parts[i+half])
		}
		parts = parts[:half]
	}
	return parts[0]
}

// parallelDense is the parallel path of the dense and sparse engine, for
// float64 and float32 input alike. It fans chunk accumulation out to p
// workers over pooled full-range windows (add accumulates elements
// [lo, hi) of the caller's input into one), then combines the
// regularized partials in the Lemma 1 merge tree (AddRegularized leaves
// its result regularized, so levels compose). Consumed partials return
// to the pool as soon as they are merged; the caller rounds the root and
// returns it with putDense.
func parallelDense(n, p, chunk int, width uint, add func(d *accum.Window, lo, hi int)) *accum.Window {
	parts := fanOut(n, p, chunk, func(cur *chunkCursor) *accum.Window {
		d := getDense(width)
		for {
			lo, hi, ok := cur.take()
			if !ok {
				break
			}
			add(d, lo, hi)
		}
		d.Regularize()
		return d
	})
	return MergeTree(parts, func(dst, src *accum.Window) *accum.Window {
		dst.AddRegularized(src)
		putDense(src)
		return dst
	})
}

// parallelEngine is the generic parallel path for any registered engine
// whose capabilities promise a streaming accumulator with deterministic
// (exact) merges: per-worker accumulators over the shared chunk cursor,
// then the same log-depth merge tree through the engine interface.
func parallelEngine(xs []float64, e engine.Engine, p, chunk int) float64 {
	parts := fanOut(len(xs), p, chunk, func(cur *chunkCursor) engine.Accumulator {
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
