// Package core implements the paper's summation algorithms on top of the
// superaccumulator representations in internal/accum, and registers each
// of them as a pluggable engine (see internal/engine):
//
//   - Sum: sequential exact summation (convert, accumulate exactly, round
//     once) — the paper's Section 3 sequential building block, and the
//     one-shot sum of the dense and sparse engines.
//   - SumParallel: the shared-memory parallel summation tree, and the
//     path parsum.Sum takes. Chunks of the input are pulled off a shared
//     cursor by a pool of goroutines, accumulated exactly into pooled
//     superaccumulators, and the partials are combined carry-free (Lemma
//     1) in a log-depth merge tree, so the result is the same exact,
//     correctly rounded value for every worker count, chunk size, and
//     merge order. Below two grains of input it sums in the caller.
//     Options.Engine routes the same machinery through any registered
//     engine whose capabilities allow it; SumParallel32 is the float32
//     form of the dense tree.
//   - SumAdaptive: the condition-number-sensitive algorithm of Section 4,
//     using γ-truncated sparse superaccumulators with the truncation bound
//     squared every round until a certified stopping condition holds.
package core

import (
	"fmt"
	"runtime"

	"parsum/internal/accum"
	"parsum/internal/engine"
)

// Options configures the parallel and adaptive algorithms. The zero value
// is ready to use.
type Options struct {
	// Width is the superaccumulator digit width W (radix 2^W); 0 means
	// accum.DefaultWidth. It applies to the built-in dense/sparse engine;
	// other engines use their own representations.
	Width uint
	// Workers is the number of concurrent goroutines, capped at one per
	// chunk. 0 means min(GOMAXPROCS, n/grain) for n values, with grain
	// = 2^14: below two grains the sum runs in the calling goroutine,
	// where starting workers would cost more than they save.
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

// grain is the fewest values a worker gets when Options.Workers is 0. On
// a 2-vCPU host two workers of 2^13 values each did not beat one, and two
// of 2^14 won 1.4× (DESIGN.md §3 has the crossover table).
const grain = 1 << 14

// plan resolves the worker count p and the leaf chunk size for an
// n-element input. p is opt.Workers, or min(GOMAXPROCS, n/grain) when
// that is 0, and never more than the chunk count; p < 2 means sum in the
// calling goroutine.
func (o Options) plan(n int) (p, chunk int) {
	p = o.Workers
	if p <= 0 {
		p = min(runtime.GOMAXPROCS(0), n/grain)
	}
	chunk = o.ChunkSize
	if chunk <= 0 {
		chunk = AutoChunk(n, p)
	}
	return min(p, (n+chunk-1)/chunk), chunk
}

// Sum returns the correctly rounded (hence faithfully rounded) sum of xs,
// computed exactly in a pooled full-range window in the calling
// goroutine. It is the one-shot sum of both the dense and the sparse
// engine; parsum.Sum takes SumParallel instead.
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

// SumParallel returns the selected engine's sum of xs computed by up to
// opt.Workers goroutines (see Options.Workers for the zero value). For
// engines with deterministic merges (all the exact superaccumulator
// engines) the result is bit-identical for every worker count, chunk
// size, and merge order, because every partial result is exact; engines
// without streaming deterministic merges are computed sequentially with
// their one-shot Sum.
func SumParallel(xs []float64, opt Options) float64 {
	p, chunk := opt.plan(len(xs))
	switch opt.Engine {
	case "", EngineDense, EngineSparse:
		// The leaf closure escapes into the workers, so it is built only
		// when they run: the sequential branch allocates nothing.
		var d *accum.Window
		if p < 2 {
			d = getDense(opt.Width)
			d.AddSlice(xs)
		} else {
			d = parallelDense(len(xs), p, chunk, opt.Width, func(d *accum.Window, lo, hi int) { d.AddSlice(xs[lo:hi]) })
		}
		v := d.Round()
		putDense(d)
		return v
	}
	e := engine.MustGet(opt.Engine)
	caps := e.Caps()
	if p < 2 || !caps.Streaming || !caps.DeterministicParallel {
		return e.Sum(xs)
	}
	return parallelEngine(xs, e, p, chunk)
}

// SumParallel32 is the float32 form of SumParallel's dense tree: the
// correctly rounded float32 value of the exact sum of xs, bit-identical to
// Sum32 for every worker count and chunk size. Only the dense engine has
// this path, so opt.Engine must be "", EngineDense or EngineSparse; other
// names panic.
func SumParallel32(xs []float32, opt Options) float32 {
	switch opt.Engine {
	case "", EngineDense, EngineSparse:
	default:
		panic(fmt.Sprintf("core: SumParallel32 runs the dense tree only, not engine %q", opt.Engine))
	}
	p, chunk := opt.plan(len(xs))
	var d *accum.Window
	if p < 2 {
		d = getDense(opt.Width)
		d.AddSlice32(xs)
	} else {
		d = parallelDense(len(xs), p, chunk, opt.Width, func(d *accum.Window, lo, hi int) { d.AddSlice32(xs[lo:hi]) })
	}
	v := d.Round32()
	putDense(d)
	return v
}

// Sum32 returns the correctly rounded float32 value of the exact sum of
// xs, computed sequentially. Each float32 converts to float64 exactly, the
// sum is accumulated exactly, and a single rounding targets binary32 — so
// there is no double rounding (summing in float64 and converting would
// misround near binary32 rounding boundaries).
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
