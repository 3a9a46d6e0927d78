// Package parsum computes exact, correctly rounded sums of floating-point
// numbers, sequentially and in parallel. It is a Go implementation of
// Goodrich & Eldawy, "Parallel Algorithms for Summing Floating-Point
// Numbers" (SPAA 2016): inputs are converted to a carry-free
// (α,β)-regularized superaccumulator representation, summed exactly in that
// representation (in any order, by any number of goroutines, with
// bit-identical results), and rounded once at the end.
//
// Quick start:
//
//	sum := parsum.Sum(xs)                       // exact, correctly rounded, on every core
//	sum  = parsum.SumParallel(xs, parsum.Options{Workers: 8})
//
// Sum splits large inputs across GOMAXPROCS goroutines and sums small ones
// (below 2^15 values) in the calling goroutine; SumParallel fixes the
// worker count. Every split gives the same bits.
//
// For streaming accumulation:
//
//	acc := parsum.NewAccumulator()
//	for _, x := range xs { acc.Add(x) }
//	sum := acc.Round()
//
// Accumulators merge exactly, so partial sums computed on different
// goroutines (or machines) combine without any error:
//
//	a.Merge(b)
//
// Every summation strategy is a pluggable engine registered in a
// process-wide registry; Engines() lists them with their capability flags,
// and Options.Engine, SumEngine, or NewAccumulatorEngine select one:
//
//	sum = parsum.SumParallel(xs, parsum.Options{Engine: "sparse"})
//	acc, err := parsum.NewAccumulatorEngine("small")
//
// Beyond the core API, the internal packages implement the paper's PRAM
// simulator, external-memory algorithms, single-round MapReduce engine,
// sequential baselines (including Zhu & Hayes' iFastSum), and the
// evaluation harness; see README.md and DESIGN.md.
package parsum

import (
	"fmt"

	"parsum/internal/baseline"
	"parsum/internal/condition"
	"parsum/internal/core"
	"parsum/internal/engine"
	"parsum/internal/mapreduce"
	"parsum/internal/shard"
)

// Options configures the parallel and adaptive summation algorithms; the
// zero value is ready to use. Options.Engine selects any engine listed by
// Engines(). See core.Options for field documentation.
type Options = core.Options

// AdaptiveStats reports what the condition-number-sensitive algorithm did.
type AdaptiveStats = core.AdaptiveStats

// Sum returns the correctly rounded (round-to-nearest-even, hence also
// faithfully rounded) value of the exact sum of xs. NaN and infinities
// follow IEEE semantics: any NaN, or both +Inf and −Inf, yield NaN; a
// single-signed infinity dominates. The exact sum of an empty or fully
// cancelling input is +0.
//
// Sum is SumParallel with the zero Options: it gives each of up to
// GOMAXPROCS goroutines at least 2^14 values, and sums inputs shorter than
// 2^15 values in the calling goroutine without allocating. The bits do not
// depend on the worker count.
func Sum(xs []float64) float64 { return core.SumParallel(xs, core.Options{}) }

// SumParallel is Sum computed by up to opt.Workers goroutines, at most one
// per chunk; Workers 0 picks the count as Sum does. The result is
// bit-identical to Sum for every worker count, chunk size, and merge
// order.
func SumParallel(xs []float64, opt Options) float64 { return core.SumParallel(xs, opt) }

// SumAdaptive is the paper's condition-number-sensitive algorithm
// (Theorem 4): it sums with γ-truncated sparse superaccumulators, squaring
// the truncation bound each round until a certified stopping condition
// holds, so well-conditioned inputs cost a single linear-work round. The
// result is a faithful rounding of the exact sum.
func SumAdaptive(xs []float64, opt Options) (float64, AdaptiveStats) {
	return core.SumAdaptive(xs, opt)
}

// IFastSum returns the correctly rounded sum of xs using the sequential
// distillation algorithm of Zhu & Hayes (2009) — the paper's sequential
// comparator, exposed for benchmarking and as a fallback-free EFT-based
// alternative on well-conditioned data.
func IFastSum(xs []float64) float64 { return baseline.IFastSum(xs) }

// ConditionNumber returns C(X) = Σ|xᵢ| / |Σxᵢ|, computed exactly: 1 for
// empty or all-zero input, +Inf for a nonzero input with exact zero sum,
// NaN if the input contains NaN or infinities.
func ConditionNumber(xs []float64) float64 { return condition.Number(xs) }

// EngineInfo describes one registered summation engine: its registry
// name, a one-line description, and its capability flags (see
// internal/engine.Caps for the exact contracts).
type EngineInfo struct {
	Name string
	Doc  string
	// Exact: the accumulation is error-free up to a single final rounding.
	Exact bool
	// CorrectlyRounded: results are the round-to-nearest-even value of the
	// exact sum.
	CorrectlyRounded bool
	// Faithful: results are a faithful rounding of the exact sum.
	Faithful bool
	// DeterministicParallel: SumParallel is bit-identical for every worker
	// count and chunk size.
	DeterministicParallel bool
	// Streaming: NewAccumulatorEngine works for this engine.
	Streaming bool
	// Invertible: the exact sum is a group, so deletion is as exact as
	// insertion — Accumulator.Sub/SubAccumulator and Sharded.Sub/SubBatch
	// work for this engine.
	Invertible bool
}

// Engines lists every registered summation engine, sorted by name. Any
// Name is valid for Options.Engine and (when Streaming) for
// NewAccumulatorEngine.
func Engines() []EngineInfo {
	all := engine.All()
	out := make([]EngineInfo, 0, len(all))
	for _, e := range all {
		c := e.Caps()
		out = append(out, EngineInfo{
			Name:                  e.Name(),
			Doc:                   e.Doc(),
			Exact:                 c.Exact,
			CorrectlyRounded:      c.CorrectlyRounded,
			Faithful:              c.Faithful,
			DeterministicParallel: c.DeterministicParallel,
			Streaming:             c.Streaming,
			Invertible:            c.Invertible,
		})
	}
	return out
}

// SumEngine returns the named engine's sum of xs in one shot; see
// Engines() for the names and their accuracy contracts. It panics on an
// unknown name.
func SumEngine(name string, xs []float64) float64 { return core.SumEngine(name, xs) }

// Accumulator is a streaming summator backed by a registered engine —
// by default the paper's dense (α,β)-regularized superaccumulator
// spanning the full float64 range, which accumulates and merges exactly.
// The zero value is not usable; construct with NewAccumulator,
// NewAccumulatorEngine, or UnmarshalBinary.
type Accumulator struct {
	name string
	a    engine.Accumulator
}

// NewAccumulator returns an empty exact accumulator backed by the dense
// superaccumulator engine.
func NewAccumulator() *Accumulator {
	return &Accumulator{name: core.EngineDense, a: engine.MustGet(core.EngineDense).NewAccumulator()}
}

// NewAccumulatorEngine returns an empty accumulator backed by the named
// engine. It errors when the engine is unknown or not streaming (see
// Engines()).
func NewAccumulatorEngine(name string) (*Accumulator, error) {
	e, ok := engine.Get(name)
	if !ok {
		return nil, fmt.Errorf("parsum: unknown engine %q (registered: %v)", name, engine.Names())
	}
	acc := e.NewAccumulator()
	if acc == nil {
		return nil, fmt.Errorf("parsum: engine %q does not support streaming accumulation", name)
	}
	return &Accumulator{name: name, a: acc}, nil
}

// Engine returns the registry name of the engine backing a.
func (a *Accumulator) Engine() string { return a.name }

// MarshalBinary encodes the accumulator's exact partial sum as a
// versioned, endian-stable wire partial tagged with its engine name, so it
// can be shipped to another process and merged there without any rounding
// error — the payload the paper's map-side combiners emit. It implements
// encoding.BinaryMarshaler. Engines whose accumulators cannot serialize
// (none of the built-in streaming engines) return an error.
func (a *Accumulator) MarshalBinary() ([]byte, error) {
	return engine.MarshalPartial(a.name, a.a)
}

// UnmarshalBinary decodes a wire partial into a, replacing its contents
// (including the backing engine, which the payload names). It implements
// encoding.BinaryUnmarshaler, validates everything it reads, and never
// panics on malformed input. Note that the decoded engine is chosen by
// the payload: when the bytes come from an untrusted peer, check Engine()
// before Merge (which panics on mixed engines), or use Sharded.MergeBytes,
// which rejects engine mismatches with an error. It works on a zero
// Accumulator.
func (a *Accumulator) UnmarshalBinary(data []byte) error {
	name, acc, err := engine.UnmarshalPartial(data)
	if err != nil {
		return err
	}
	a.name, a.a = name, acc
	return nil
}

// Add accumulates x exactly.
func (a *Accumulator) Add(x float64) { a.a.Add(x) }

// AddSlice accumulates every element of xs exactly.
func (a *Accumulator) AddSlice(xs []float64) { a.a.AddSlice(xs) }

// AddSlice32 accumulates every element of a float32 slice exactly (each
// binary32 value is exactly representable in every exact engine). Every
// streaming engine — the dense, sparse, and small superaccumulators —
// consumes the binary32 values directly through its native narrow-lane
// path, without materializing a float64 copy; the result is bit-identical
// to widening each element and calling Add.
func (a *Accumulator) AddSlice32(xs []float32) { a.a.(engine.Adder32).AddSlice32(xs) }

// SubSlice32 deletes every element of a float32 slice exactly — the group
// inverse of AddSlice32. Panics when the engine is not Invertible.
func (a *Accumulator) SubSlice32(xs []float32) { a.inverter().(engine.Adder32).SubSlice32(xs) }

// Invertible reports whether the backing engine supports exact deletion
// (Sub, SubSlice, SubAccumulator). The superaccumulator engines all do:
// their signed-digit representation is closed under negation, so the exact
// sum is a group, not just a monoid.
func (a *Accumulator) Invertible() bool {
	_, ok := a.a.(engine.Inverter)
	return ok
}

// inverter returns the deletion surface, panicking for engines that have
// none (a programming error, like Merge's engine mismatch).
func (a *Accumulator) inverter() engine.Inverter {
	inv, ok := a.a.(engine.Inverter)
	if !ok {
		panic(fmt.Sprintf("parsum: engine %q does not support exact deletion (see Engines() for Invertible engines)", a.name))
	}
	return inv
}

// Sub deletes x from the accumulated sum exactly — the inverse of Add.
// Because the representation is exact and rounding happens only at Round,
// a.Add(x); a.Sub(x) restores a's rounded bits exactly, for any x and any
// interleaving with other operations. Deleting a non-finite value removes
// it from the tracked multiset (Sub(+Inf) undoes Add(+Inf); it is not
// Add(-Inf)). Panics when the engine is not Invertible.
func (a *Accumulator) Sub(x float64) { a.inverter().Sub(x) }

// SubSlice deletes every element of xs exactly. Panics when the engine is
// not Invertible.
func (a *Accumulator) SubSlice(xs []float64) { a.inverter().SubSlice(xs) }

// SubAccumulator deletes the exact contents of o from a — the inverse of
// Merge; o's value is unchanged. After a.Merge(o); a.SubAccumulator(o),
// a's rounded bits are exactly what they were before the Merge. Both sides
// must come from the same engine; mixing engines panics, as does a
// non-Invertible engine.
func (a *Accumulator) SubAccumulator(o *Accumulator) {
	if a.name != o.name {
		panic(fmt.Sprintf("parsum: SubAccumulator of %q accumulator with %q accumulator", a.name, o.name))
	}
	a.inverter().SubAccumulator(o.a)
}

// Merge adds the exact contents of o into a; o's value is unchanged.
// Accumulators built from disjoint data merge to exactly the accumulator
// of the combined data, in any order. Both sides must come from the same
// engine; mixing engines panics (decoded accumulators name their engine —
// see UnmarshalBinary).
func (a *Accumulator) Merge(o *Accumulator) {
	if a.name != o.name {
		panic(fmt.Sprintf("parsum: Merge of %q accumulator with %q accumulator", a.name, o.name))
	}
	a.a.Merge(o.a)
}

// Round returns the correctly rounded float64 value of the exact sum
// accumulated so far. The accumulator remains usable.
func (a *Accumulator) Round() float64 { return a.a.Round() }

// Reset empties the accumulator.
func (a *Accumulator) Reset() { a.a.Reset() }

// Clone returns an independent copy.
func (a *Accumulator) Clone() *Accumulator { return &Accumulator{name: a.name, a: a.a.Clone()} }

// ShardedOptions configures NewSharded; the zero value is ready to use
// (dense engine, one shard per P). See shard.Options for field
// documentation.
type ShardedOptions = shard.Options

// Sharded is the concurrent ingestion surface: a sharded, many-writer
// accumulator whose Snapshot/Sum are bit-identical to summing the same
// values sequentially, regardless of shard count, writer interleaving, or
// snapshot timing. Writers stripe across per-shard accumulators (no
// contention in the steady state); snapshots hand each shard a fresh
// pooled accumulator and fold the taken partials through the log-depth
// Lemma 1 merge tree. All methods are safe for concurrent use.
type Sharded struct {
	s *shard.Sharded
}

// NewSharded returns an empty sharded accumulator. It errors when
// opt.Engine is unknown or lacks the Streaming and DeterministicParallel
// capabilities that make sharded ingestion deterministic (see Engines()).
func NewSharded(opt ShardedOptions) (*Sharded, error) {
	s, err := shard.New(opt)
	if err != nil {
		return nil, err
	}
	return &Sharded{s: s}, nil
}

// Engine returns the registry name of the engine backing every shard.
func (s *Sharded) Engine() string { return s.s.Engine() }

// NumShards returns the number of writer stripes.
func (s *Sharded) NumShards() int { return s.s.Shards() }

// Add accumulates x exactly.
func (s *Sharded) Add(x float64) { s.s.Add(x) }

// AddBatch accumulates every element of xs exactly, amortizing the shard
// handoff over the batch — the high-throughput ingestion call.
func (s *Sharded) AddBatch(xs []float64) { s.s.AddBatch(xs) }

// AddBatches accumulates every slice in batches exactly under one
// striped-lock acquisition — the batch.SliceSink flush entry point, so
// a coalesced flush group applies without concatenating request bodies.
func (s *Sharded) AddBatches(batches [][]float64) { s.s.AddBatches(batches) }

// Invertible reports whether the backing engine supports exact deletion
// (Sub/SubBatch).
func (s *Sharded) Invertible() bool { return s.s.Invertible() }

// Sub deletes x from the accumulated sum exactly. Deletion is as exact as
// insertion, so any interleaving of adds and subs that leaves the same
// multiset snapshots to the same bits. Panics when the engine is not
// Invertible.
func (s *Sharded) Sub(x float64) { s.s.Sub(x) }

// SubBatch deletes every element of xs exactly, amortizing the shard
// handoff over the batch. Panics when the engine is not Invertible.
func (s *Sharded) SubBatch(xs []float64) { s.s.SubBatch(xs) }

// SubBatches deletes every slice in batches exactly under one
// striped-lock acquisition — the deletion half of the batch.SliceSink
// flush entry point. Panics when the engine is not Invertible.
func (s *Sharded) SubBatches(batches [][]float64) { s.s.SubBatches(batches) }

// Sum returns the correctly rounded exact sum of everything ingested so
// far; ingestion may continue concurrently.
func (s *Sharded) Sum() float64 { return s.s.Sum() }

// Snapshot is Sum: the correctly rounded exact sum of every Add/AddBatch
// that completed before it, obtained without stalling writers (they block
// only for their own shard's accumulator swap).
func (s *Sharded) Snapshot() float64 { return s.s.Snapshot() }

// Reset empties the accumulator; it remains usable.
func (s *Sharded) Reset() { s.s.Reset() }

// Merge folds the exact contents of o into s; o is unchanged and remains
// usable. Both sides must use the same engine; mixing engines panics.
func (s *Sharded) Merge(o *Sharded) { s.s.Merge(o.s) }

// SnapshotBytes folds everything ingested so far and returns its exact
// value as a wire partial — the payload a worker ships to a remote merge
// service (see cmd/sumd). Ingestion may continue concurrently; the encoded
// value covers every Add/AddBatch that completed before it.
func (s *Sharded) SnapshotBytes() ([]byte, error) { return s.s.SnapshotBytes() }

// MergeBytes decodes a wire partial (produced by Accumulator.MarshalBinary
// or Sharded.SnapshotBytes anywhere — another process, another machine)
// and folds its exact contents in. Malformed or engine-mismatched payloads
// return an error and leave s unchanged. Pushing the same partials in any
// order yields a bit-identical Sum: the merge is exact and rounding
// happens once, at Sum.
func (s *Sharded) MergeBytes(data []byte) error { return s.s.MergeBytes(data) }

// Writer returns an ingestion handle pinned to one shard (assigned
// round-robin), for dedicated long-lived writer goroutines.
func (s *Sharded) Writer() *ShardedWriter { return &ShardedWriter{w: s.s.Writer()} }

// ShardedWriter is a shard-pinned ingestion handle obtained from
// Sharded.Writer.
type ShardedWriter struct {
	w *shard.Writer
}

// Add accumulates x exactly into the writer's shard.
func (w *ShardedWriter) Add(x float64) { w.w.Add(x) }

// AddBatch accumulates every element of xs exactly into the writer's shard.
func (w *ShardedWriter) AddBatch(xs []float64) { w.w.AddBatch(xs) }

// Sub deletes x exactly from the writer's shard. Panics when the engine is
// not Invertible.
func (w *ShardedWriter) Sub(x float64) { w.w.Sub(x) }

// SubBatch deletes every element of xs exactly from the writer's shard.
// Panics when the engine is not Invertible.
func (w *ShardedWriter) SubBatch(xs []float64) { w.w.SubBatch(xs) }

// MRConfig configures MapReduceSum; see the mapreduce package for field
// documentation. The zero value models a single-worker cluster.
type MRConfig = mapreduce.Config

// MRResult is the result of a MapReduceSum job: the exact rounded sum plus
// the modeled cluster statistics.
type MRResult = mapreduce.Result

// MapReduceSum runs the paper's single-round MapReduce summation on the
// in-process simulated cluster and returns the exact rounded sum with job
// statistics (shuffle volume, modeled makespan per phase).
func MapReduceSum(xs []float64, cfg MRConfig) MRResult { return mapreduce.Run(xs, cfg) }

// Sum32 returns the correctly rounded float32 sum of xs. The accumulation
// is exact and the single rounding targets binary32 directly, avoiding the
// double rounding of "sum in float64, then convert". Like Sum, it splits
// large inputs across up to GOMAXPROCS goroutines through the same tree,
// with the same bits for every split.
func Sum32(xs []float32) float32 { return core.SumParallel32(xs, core.Options{}) }

// Round32 returns the correctly rounded float32 value of the exact sum
// accumulated so far (one rounding, directly to binary32) for engines
// whose accumulators can round to binary32 natively — the default dense
// engine among them. Other engines round to float64 first and convert,
// which can double-round near binary32 rounding boundaries.
func (a *Accumulator) Round32() float32 {
	if r, ok := a.a.(engine.Rounder32); ok {
		return r.Round32()
	}
	return float32(a.a.Round())
}
