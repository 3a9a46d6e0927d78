// Package core implements the paper's summation algorithms on top of the
// superaccumulator representations in internal/accum, and registers each
// of them as a pluggable engine (see internal/engine):
//
//   - Sum: sequential exact summation (convert, accumulate exactly, round
//     once) — the paper's Section 3 sequential building block, and the
//     one-shot sum of the dense and sparse engines.
//   - SumParallel: the shared-memory parallel summation tree. Chunks of the
//     input are pulled off a shared cursor by a pool of goroutines,
//     accumulated exactly into pooled superaccumulators, and the partials
//     are combined carry-free (Lemma 1) in a log-depth merge tree, so the
//     result is the same exact, correctly rounded value for every worker
//     count, chunk size, and merge order. Options.Engine routes the same
//     machinery through any registered engine whose capabilities allow it.
//   - SumAdaptive: the condition-number-sensitive algorithm of Section 4,
//     using γ-truncated sparse superaccumulators with the truncation bound
//     squared every round until a certified stopping condition holds.
package core

import (
	"runtime"

	"parsum/internal/engine"
)

// Options configures the parallel and adaptive algorithms. The zero value
// is ready to use.
type Options struct {
	// Width is the superaccumulator digit width W (radix 2^W); 0 means
	// accum.DefaultWidth. It applies to the built-in dense/sparse engine;
	// other engines use their own representations.
	Width uint
	// Workers is the number of concurrent goroutines; 0 means GOMAXPROCS.
	Workers int
	// ChunkSize is the number of elements accumulated per leaf task;
	// 0 auto-tunes from the input length and worker count (see AutoChunk).
	ChunkSize int
	// Engine selects a registered summation engine by name; "" means
	// EngineDense. Unknown names panic with the list of registered
	// engines. Engines that are not streaming or whose merges are not
	// deterministic fall back to their sequential one-shot Sum under
	// SumParallel.
	Engine string
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// chunkFor resolves the leaf chunk size for an n-element input summed by
// p workers, auto-tuning when no explicit ChunkSize is set.
func (o Options) chunkFor(n, p int) int {
	if o.ChunkSize > 0 {
		return o.ChunkSize
	}
	return AutoChunk(n, p)
}

// Sum returns the correctly rounded (hence faithfully rounded) sum of xs,
// computed exactly in a pooled full-range window. It is the one-shot sum
// of both the dense and the sparse engine.
func Sum(xs []float64) float64 {
	d := getDense(0)
	d.AddSlice(xs)
	v := d.Round()
	putDense(d)
	return v
}

// SumEngine returns the one-shot sum of xs by the named registered engine
// ("" selects the dense default). It panics on an unknown name; use
// engine.Get for a checked lookup.
func SumEngine(name string, xs []float64) float64 {
	if name == "" {
		name = EngineDense
	}
	return engine.MustGet(name).Sum(xs)
}

// SumParallel returns the selected engine's sum of xs computed by
// opt.Workers goroutines. For engines with deterministic merges (all the
// exact superaccumulator engines) the result is bit-identical for every
// worker count, chunk size, and merge order, because every partial result
// is exact; engines without streaming deterministic merges are computed
// sequentially with their one-shot Sum.
func SumParallel(xs []float64, opt Options) float64 {
	name := opt.Engine
	p := opt.workers()
	chunk := opt.chunkFor(len(xs), p)
	sequential := p <= 1 || len(xs) <= chunk
	switch name {
	case "", EngineDense, EngineSparse:
		if sequential {
			d := getDense(opt.Width)
			d.AddSlice(xs)
			v := d.Round()
			putDense(d)
			return v
		}
		return parallelDense(xs, p, chunk, opt.Width)
	}
	e := engine.MustGet(name)
	caps := e.Caps()
	if sequential || !caps.Streaming || !caps.DeterministicParallel {
		return e.Sum(xs)
	}
	return parallelEngine(xs, e, p, chunk)
}

// Sum32 returns the correctly rounded float32 value of the exact sum of
// xs. Each float32 converts to float64 exactly, the sum is accumulated
// exactly, and a single rounding targets binary32 — so there is no double
// rounding (summing in float64 and converting would misround near
// binary32 rounding boundaries).
func Sum32(xs []float32) float32 {
	d := getDense(0)
	// The narrow-lane pass consumes the binary32 values directly: no
	// widened float64 copy is ever materialized, and the lane updates are
	// single-word (a binary32 significand shifted into digit position
	// fits one uint64), so this runs faster than the float64 bulk path.
	d.AddSlice32(xs)
	v := d.Round32()
	putDense(d)
	return v
}
