package core

import (
	"fmt"

	"parsum/internal/accum"
	"parsum/internal/engine"
)

// Registry names of the engines this package provides. EngineDense and
// EngineSparse are two names for one engine — the same accumulator, the
// same one-shot Sum and the same parallel hot path (pooled accumulators,
// Lemma 1 tree merge) — whose partials differ only in their kind byte;
// the others run through the generic engine path.
const (
	EngineDense     = "dense"
	EngineSparse    = "sparse"
	EngineAdaptive  = "adaptive"
	EngineSmall     = "small"
	EngineTruncated = "truncated"
)

func init() {
	exactParallel := engine.Caps{
		Exact:                 true,
		CorrectlyRounded:      true,
		DeterministicParallel: true,
		Streaming:             true,
		// The signed-digit representations are closed under negation, so
		// every superaccumulator engine supports exact deletion.
		Invertible: true,
	}
	engine.Register(engine.New(EngineDense,
		"(α,β)-regularized superaccumulator with carry-free Lemma 1 merges and σ(n)-sized partials",
		exactParallel, Sum,
		func() engine.Accumulator { return &windowAcc{w: accum.NewWindow(0), kind: accum.KindDense} }))
	engine.Register(engine.New(EngineSparse,
		"second name of dense: the same window, sums and σ(n)-sized partials, tagged 'S' on the wire",
		exactParallel, Sum,
		func() engine.Accumulator { return &windowAcc{w: accum.NewWindow(0), kind: accum.KindSparse} }))
	engine.Register(engine.New(EngineSmall,
		"Neal-style small superaccumulator (carry-propagating merge baseline)",
		exactParallel,
		func(xs []float64) float64 { s := accum.NewSmall(); s.AddSlice(xs); return s.Round() },
		func() engine.Accumulator { return &smallAcc{s: accum.NewSmall()} }))
	engine.Register(engine.New(EngineAdaptive,
		"condition-number-sensitive γ-truncated summation (Theorem 4; faithful rounding)",
		engine.Caps{Faithful: true},
		func(xs []float64) float64 { v, _ := SumAdaptive(xs, Options{}); return v },
		nil))
	engine.Register(engine.New(EngineTruncated,
		"fixed-γ truncated sparse summation (Section 4) with certified exact fallback",
		engine.Caps{Faithful: true},
		SumTruncated,
		nil))
}

// windowAcc adapts accum.Window to the engine.Accumulator interface. The
// dense and sparse engines share it: both keep only the digits their data
// reaches and ship only the active components, and differ only in the
// kind byte of their partials ('D' or 'S'), which each decoder checks.
type windowAcc struct {
	w    *accum.Window
	kind byte
}

func (a *windowAcc) Add(x float64)              { a.w.Add(x) }
func (a *windowAcc) AddSlice(xs []float64)      { a.w.AddSlice(xs) }
func (a *windowAcc) AddSlice32(xs []float32)    { a.w.AddSlice32(xs) }
func (a *windowAcc) Sub(x float64)              { a.w.Sub(x) }
func (a *windowAcc) SubSlice(xs []float64)      { a.w.SubSlice(xs) }
func (a *windowAcc) SubSlice32(xs []float32)    { a.w.SubSlice32(xs) }
func (a *windowAcc) Merge(o engine.Accumulator) { a.w.Merge(o.(*windowAcc).w) }

func (a *windowAcc) SubAccumulator(o engine.Accumulator) { a.w.AddNeg(o.(*windowAcc).w) }
func (a *windowAcc) Round() float64                      { return a.w.Round() }
func (a *windowAcc) Round32() float32                    { return a.w.Round32() }
func (a *windowAcc) Reset()                              { a.w.Reset() }
func (a *windowAcc) Clone() engine.Accumulator           { return &windowAcc{w: a.w.Clone(), kind: a.kind} }
func (a *windowAcc) Sigma() int                          { return a.w.ToSparse().Len() }

// MarshalBinary implements the wire-partial codec of the dense and sparse
// engines.
func (a *windowAcc) MarshalBinary() ([]byte, error) { return a.w.MarshalKind(a.kind), nil }

// UnmarshalBinary decodes a wire partial, enforcing the engine's canonical
// digit width: both engines always run at accum.DefaultWidth, and a
// partial of any other width could not merge with local accumulators.
func (a *windowAcc) UnmarshalBinary(data []byte) error {
	var w accum.Window
	if err := w.UnmarshalKind(a.kind, data); err != nil {
		return err
	}
	if w.Width() != a.w.Width() {
		return fmt.Errorf("partial has digit width %d, engine runs at %d", w.Width(), a.w.Width())
	}
	*a.w = w
	return nil
}

// smallAcc adapts accum.Small to the engine.Accumulator interface.
type smallAcc struct{ s *accum.Small }

func (a *smallAcc) Add(x float64)              { a.s.Add(x) }
func (a *smallAcc) AddSlice(xs []float64)      { a.s.AddSlice(xs) }
func (a *smallAcc) AddSlice32(xs []float32)    { a.s.AddSlice32(xs) }
func (a *smallAcc) Sub(x float64)              { a.s.Sub(x) }
func (a *smallAcc) SubSlice(xs []float64)      { a.s.SubSlice(xs) }
func (a *smallAcc) SubSlice32(xs []float32)    { a.s.SubSlice32(xs) }
func (a *smallAcc) Merge(o engine.Accumulator) { a.s.Merge(o.(*smallAcc).s) }

func (a *smallAcc) SubAccumulator(o engine.Accumulator) { a.s.AddNeg(o.(*smallAcc).s) }
func (a *smallAcc) Round() float64                      { return a.s.Round() }
func (a *smallAcc) Reset()                              { a.s.Reset() }
func (a *smallAcc) Clone() engine.Accumulator           { return &smallAcc{s: a.s.Clone()} }

// MarshalBinary implements the wire-partial codec for the small engine;
// Small's chunk spacing is fixed, so no width enforcement is needed beyond
// the accum codec's own.
func (a *smallAcc) MarshalBinary() ([]byte, error) { return a.s.MarshalBinary() }

// UnmarshalBinary implements the wire-partial codec for the small engine.
func (a *smallAcc) UnmarshalBinary(data []byte) error { return a.s.UnmarshalBinary(data) }
