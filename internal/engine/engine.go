// Package engine defines the pluggable summation-engine seam of the
// library: a uniform interface over every summation strategy (dense and
// sparse superaccumulators, the adaptive Theorem-4 algorithm, iFastSum,
// Neal's carry-propagating small superaccumulator, and the non-exact
// baselines), plus a process-wide registry that the public API, the
// benchmark harness, and the command-line tools enumerate instead of
// hard-coding strategy lists.
//
// The package is dependency-free by design: implementations live next to
// the algorithms they wrap (internal/core, internal/baseline) and register
// themselves in init, so importing either of those packages populates the
// registry without an import cycle. See DESIGN.md §2 for the layer map.
package engine

import (
	"fmt"
	"sort"
	"sync"
)

// Caps are an engine's capability flags. They are declarative contracts,
// enforced by the conformance suite in this package's external tests:
// a CorrectlyRounded engine must be bit-identical to the math/big oracle
// on every input, a Faithful engine must pass the oracle's faithfulness
// check, and a DeterministicParallel engine must return bit-identical
// results for every worker count, chunk size, and merge order.
type Caps struct {
	// Exact: the accumulation itself is error-free (the full sum is held
	// exactly until a single final rounding).
	Exact bool
	// CorrectlyRounded: the result is the round-to-nearest-even value of
	// the exact sum.
	CorrectlyRounded bool
	// Faithful: the result is a faithful rounding of the exact sum (one of
	// the two floats bracketing it; implied by CorrectlyRounded).
	Faithful bool
	// DeterministicParallel: partial accumulators merge exactly, so
	// parallel summation is bit-identical for every worker count and
	// merge order.
	DeterministicParallel bool
	// Streaming: NewAccumulator returns a usable streaming accumulator.
	Streaming bool
	// Invertible: the exact sum is a group, not just a monoid — the
	// engine's accumulators implement Inverter, so deletion is as exact as
	// insertion: a.Add(b); a.Sub(b) restores a's rounded bits exactly, and
	// likewise for SubAccumulator. Implies Streaming. The signed-digit
	// superaccumulator engines all qualify; no compensated scheme can
	// (a correction term cannot be un-absorbed).
	Invertible bool
}

// Accumulator is a streaming partial sum owned by one goroutine. Merge
// panics if o was produced by a different engine (mixing representations
// is a programming error, like the width mismatches internal/accum
// panics on).
type Accumulator interface {
	Add(x float64)
	AddSlice(xs []float64)
	Merge(o Accumulator)
	Round() float64
	Reset()
	Clone() Accumulator
}

// Inverter is the exact-deletion surface of an Invertible engine's
// accumulators. Sub deletes a previously added value (for non-finite
// values this removes the summand from the tracked multiset — it is not
// Add(−x)); SubAccumulator deletes everything a previously merged
// accumulator holds. Both are exact: rounding still happens only at Round,
// so add/sub histories that represent the same multiset round to the same
// bits regardless of order or interleaving. SubAccumulator panics if o was
// produced by a different engine, like Merge.
type Inverter interface {
	Sub(x float64)
	SubSlice(xs []float64)
	SubAccumulator(o Accumulator)
}

// Rounder32 is implemented by accumulators that can round their exact sum
// directly to binary32, avoiding the double rounding of
// float32(Round()).
type Rounder32 interface {
	Round32() float32
}

// Adder32 is the native float32 bulk path every streaming engine's
// accumulator implements: AddSlice32 accumulates every element exactly
// (each binary32 value is exactly representable in the accumulator),
// bit-identical to widening each element and calling Add, without
// materializing a float64 copy. SubSlice32 is its group inverse on
// Invertible engines.
type Adder32 interface {
	AddSlice32(xs []float32)
	SubSlice32(xs []float32)
}

// SigmaCounter is implemented by accumulators that can report σ — the
// number of active superaccumulator components — for diagnostics.
type SigmaCounter interface {
	Sigma() int
}

// Engine is one summation strategy: a one-shot sum, an optional streaming
// accumulator factory, and the capability flags that let callers route
// workloads (exactness requirements, parallelizability) without knowing
// the concrete algorithm.
type Engine interface {
	// Name is the registry key, stable across releases ("dense",
	// "ifastsum", ...).
	Name() string
	// Doc is a one-line human description for listings.
	Doc() string
	// Caps reports the engine's capability flags.
	Caps() Caps
	// Sum returns the engine's sum of xs in one shot.
	Sum(xs []float64) float64
	// NewAccumulator returns a fresh streaming accumulator, or nil when
	// Caps().Streaming is false.
	NewAccumulator() Accumulator
}

// spec is the ready-made Engine implementation used by New.
type spec struct {
	name string
	doc  string
	caps Caps
	sum  func([]float64) float64
	acc  func() Accumulator
}

func (s *spec) Name() string             { return s.name }
func (s *spec) Doc() string              { return s.doc }
func (s *spec) Caps() Caps               { return s.caps }
func (s *spec) Sum(xs []float64) float64 { return s.sum(xs) }

func (s *spec) NewAccumulator() Accumulator {
	if s.acc == nil {
		return nil
	}
	return s.acc()
}

// New builds an Engine from its parts; acc may be nil for non-streaming
// engines (caps.Streaming must agree).
func New(name, doc string, caps Caps, sum func([]float64) float64, acc func() Accumulator) Engine {
	if name == "" || sum == nil {
		panic("engine: New requires a name and a Sum function")
	}
	if caps.Streaming != (acc != nil) {
		panic(fmt.Sprintf("engine %q: Streaming flag (%v) disagrees with accumulator factory", name, caps.Streaming))
	}
	if caps.Invertible {
		if acc == nil {
			panic(fmt.Sprintf("engine %q: Invertible requires a streaming accumulator", name))
		}
		if _, ok := acc().(Inverter); !ok {
			panic(fmt.Sprintf("engine %q: Invertible flag set but accumulator does not implement Inverter", name))
		}
	}
	if caps.CorrectlyRounded {
		caps.Faithful = true // correct rounding implies faithful rounding
	}
	return &spec{name: name, doc: doc, caps: caps, sum: sum, acc: acc}
}

var (
	mu       sync.RWMutex
	registry = map[string]Engine{}
)

// Register adds e to the process-wide registry. It panics on a duplicate
// name: engines register from init functions, so a collision is a build
// mistake, not a runtime condition.
func Register(e Engine) {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[e.Name()]; dup {
		panic(fmt.Sprintf("engine: duplicate registration of %q", e.Name()))
	}
	registry[e.Name()] = e
}

// Get returns the engine registered under name.
func Get(name string) (Engine, bool) {
	mu.RLock()
	defer mu.RUnlock()
	e, ok := registry[name]
	return e, ok
}

// MustGet is Get, panicking with the list of known names when name is not
// registered.
func MustGet(name string) Engine {
	if e, ok := Get(name); ok {
		return e
	}
	panic(fmt.Sprintf("engine: unknown engine %q (registered: %v)", name, Names()))
}

// Names returns the sorted names of all registered engines.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns all registered engines, sorted by name.
func All() []Engine {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Engine, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}
