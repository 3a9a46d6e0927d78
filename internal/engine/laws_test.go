// Metamorphic/property suite for the algebraic laws the exact engines
// promise. The capability flags are contracts about the *value semantics*
// of summation, so each law below must hold at the rounded-bits level:
//
//   - permutation invariance: an Exact or CorrectlyRounded sum depends
//     only on the input multiset, never on its order;
//   - sign-flip antisymmetry: Sum(−xs) is the negation of Sum(xs)
//     (round-to-nearest-even is symmetric about zero; exact zero sums
//     normalize to +0 by the library's convention);
//   - power-of-two scaling invariance: Sum(xs·2^k) = Sum(xs)·2^k when the
//     scaling over/underflows nothing (multiplying by 2^k is exact);
//   - the group laws of Invertible engines: a+b−b == a bit-for-bit,
//     whether b is deleted value-by-value, as a slice, or as a whole
//     accumulator — in any interleaving, including non-finite values and
//     over-deletion (sub before add).
//
// Inputs come from the adversarial generators in internal/gen plus the
// conformance suite's hand-built specials.
package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"parsum/internal/engine"
	"parsum/internal/gen"
)

// lawDatasets are the generator-driven inputs the laws run on. Deltas stay
// ≤ 600 so the scaling law's 2^k factors cannot push any value (or any
// rounded sum) out of the exact-scaling range.
func lawDatasets() map[string][]float64 {
	out := map[string][]float64{}
	for _, d := range gen.AllDists {
		for _, delta := range []int{40, 600} {
			xs := gen.New(gen.Config{Dist: d, N: 2500, Delta: delta, Seed: uint64(7 + delta)}).Slice()
			out[fmt.Sprintf("%s-δ%d", d, delta)] = xs
		}
	}
	return out
}

// negExpected returns the expected value of −v under the library's
// rounding conventions: exact zero sums are +0, and NaN stays NaN.
func negExpected(v float64) float64 {
	if v == 0 || math.IsNaN(v) {
		return v
	}
	return -v
}

func shuffled(xs []float64, seed int64) []float64 {
	out := append([]float64(nil), xs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) {
		out[i], out[j] = out[j], out[i]
	})
	return out
}

func negated(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = -x
	}
	return out
}

func scaled(xs []float64, k int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Ldexp(x, k)
	}
	return out
}

// exactLawEngines returns every engine whose capability flags promise
// multiset value semantics (Exact or CorrectlyRounded).
func exactLawEngines() []engine.Engine {
	var out []engine.Engine
	for _, e := range engine.All() {
		if c := e.Caps(); c.Exact || c.CorrectlyRounded {
			out = append(out, e)
		}
	}
	return out
}

// TestLawPermutationInvariance: the sum of any permutation of the input is
// bit-identical.
func TestLawPermutationInvariance(t *testing.T) {
	for _, e := range exactLawEngines() {
		t.Run(e.Name(), func(t *testing.T) {
			for name, xs := range lawDatasets() {
				want := e.Sum(xs)
				for seed := int64(1); seed <= 3; seed++ {
					if got := e.Sum(shuffled(xs, seed)); !bitEqual(got, want) {
						t.Fatalf("%s seed %d: %x != %x", name, seed,
							math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
		})
	}
}

// TestLawSignFlipAntisymmetry: Sum(−xs) == −Sum(xs) at the bits level
// (with the +0 convention for exact zero sums). Also exercised on the
// conformance suite's specials cases, where −NaN must stay NaN and
// infinities must swap.
func TestLawSignFlipAntisymmetry(t *testing.T) {
	for _, e := range exactLawEngines() {
		t.Run(e.Name(), func(t *testing.T) {
			run := func(name string, xs []float64) {
				want := negExpected(e.Sum(xs))
				if got := e.Sum(negated(xs)); !bitEqual(got, want) {
					t.Fatalf("%s: Sum(-xs)=%x, want %x", name,
						math.Float64bits(got), math.Float64bits(want))
				}
			}
			for name, xs := range lawDatasets() {
				run(name, xs)
			}
			for _, tc := range adversarialCases() {
				run(tc.name, tc.xs)
			}
		})
	}
}

// TestLawPowerOfTwoScaling: Sum(xs·2^k) == Sum(xs)·2^k bitwise, for scale
// factors that keep every value and the rounded sum inside the range where
// multiplication by 2^k is exact.
func TestLawPowerOfTwoScaling(t *testing.T) {
	for _, e := range exactLawEngines() {
		t.Run(e.Name(), func(t *testing.T) {
			for name, xs := range lawDatasets() {
				base := e.Sum(xs)
				for _, k := range []int{-12, -1, 1, 12} {
					want := math.Ldexp(base, k)
					if got := e.Sum(scaled(xs, k)); !bitEqual(got, want) {
						t.Fatalf("%s k=%d: %x != %x", name, k,
							math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
		})
	}
}

// invertibleEngines returns every engine declaring the Invertible
// capability, asserting the declared contract (accumulators implement
// Inverter) on the way.
func invertibleEngines(t *testing.T) []engine.Engine {
	t.Helper()
	var out []engine.Engine
	n := 0
	for _, e := range engine.All() {
		caps := e.Caps()
		if !caps.Invertible {
			if caps.Streaming {
				if _, ok := e.NewAccumulator().(engine.Inverter); ok {
					t.Errorf("engine %q implements Inverter but does not declare Invertible", e.Name())
				}
			}
			continue
		}
		n++
		if !caps.Streaming {
			t.Fatalf("engine %q: Invertible without Streaming", e.Name())
		}
		if _, ok := e.NewAccumulator().(engine.Inverter); !ok {
			t.Fatalf("engine %q: Invertible but accumulator lacks Inverter", e.Name())
		}
		out = append(out, e)
	}
	if n < 3 {
		t.Fatalf("only %d invertible engines registered, want the 3 superaccumulator engines", n)
	}
	return out
}

// lawGroupCases builds (a, b) input pairs for the group law, from benign
// to hostile: generated data, massive cancellation, and non-finite values
// in the deleted half.
func lawGroupCases() []struct {
	name string
	a, b []float64
} {
	r := gen.New(gen.Config{Dist: gen.Random, N: 800, Delta: 1500, Seed: 3}).Slice()
	z := gen.New(gen.Config{Dist: gen.SumZero, N: 800, Delta: 1500, Seed: 4}).Slice()
	return []struct {
		name string
		a, b []float64
	}{
		{"random", r[:400], r[400:]},
		{"sumzero", z[:400], z[400:]},
		{"cancelling-b", []float64{1, 0x1p-1074, -1e300}, []float64{math.MaxFloat64, -math.MaxFloat64, 1e300}},
		{"specials-b", []float64{1.5, -2.5}, []float64{math.Inf(1), math.NaN(), math.Inf(-1), 3}},
		{"specials-both", []float64{math.Inf(1), 1}, []float64{math.Inf(-1), math.NaN()}},
		{"empty-a", nil, r[:100]},
		{"empty-b", r[:100], nil},
	}
}

// TestLawGroupAddSubValues: a + b − b == a bitwise when b is deleted
// value-by-value, in forward, reverse, and shuffled order, interleaved or
// not with a's accumulation.
func TestLawGroupAddSubValues(t *testing.T) {
	for _, e := range invertibleEngines(t) {
		t.Run(e.Name(), func(t *testing.T) {
			for _, tc := range lawGroupCases() {
				want := e.Sum(tc.a)

				// Forward deletion after everything accumulated.
				acc := e.NewAccumulator()
				acc.AddSlice(tc.a)
				acc.AddSlice(tc.b)
				inv := acc.(engine.Inverter)
				for _, x := range tc.b {
					inv.Sub(x)
				}
				if got := acc.Round(); !bitEqual(got, want) {
					t.Fatalf("%s forward: %x != %x", tc.name, math.Float64bits(got), math.Float64bits(want))
				}

				// Shuffled deletion order.
				acc = e.NewAccumulator()
				acc.AddSlice(tc.b)
				acc.AddSlice(tc.a)
				inv = acc.(engine.Inverter)
				for _, x := range shuffled(tc.b, 11) {
					inv.Sub(x)
				}
				if got := acc.Round(); !bitEqual(got, want) {
					t.Fatalf("%s shuffled: %x != %x", tc.name, math.Float64bits(got), math.Float64bits(want))
				}

				// SubSlice must equal the element-wise loop.
				acc = e.NewAccumulator()
				acc.AddSlice(tc.a)
				acc.AddSlice(tc.b)
				acc.(engine.Inverter).SubSlice(tc.b)
				if got := acc.Round(); !bitEqual(got, want) {
					t.Fatalf("%s SubSlice: %x != %x", tc.name, math.Float64bits(got), math.Float64bits(want))
				}

				// Over-deletion first: a − b + b == a too (the group is
				// abelian; negative intermediate multiplicities are fine).
				acc = e.NewAccumulator()
				acc.AddSlice(tc.a)
				acc.(engine.Inverter).SubSlice(tc.b)
				acc.AddSlice(tc.b)
				if got := acc.Round(); !bitEqual(got, want) {
					t.Fatalf("%s sub-first: %x != %x", tc.name, math.Float64bits(got), math.Float64bits(want))
				}
			}
		})
	}
}

// TestLawGroupSubAccumulator: a.Merge(b) then a.SubAccumulator(b) restores
// a bitwise, and b is left unchanged.
func TestLawGroupSubAccumulator(t *testing.T) {
	for _, e := range invertibleEngines(t) {
		t.Run(e.Name(), func(t *testing.T) {
			for _, tc := range lawGroupCases() {
				want := e.Sum(tc.a)
				a, b := e.NewAccumulator(), e.NewAccumulator()
				a.AddSlice(tc.a)
				b.AddSlice(tc.b)
				bWant := b.Round()

				a.Merge(b)
				a.(engine.Inverter).SubAccumulator(b)
				if got := a.Round(); !bitEqual(got, want) {
					t.Fatalf("%s: merge+subacc %x != %x", tc.name, math.Float64bits(got), math.Float64bits(want))
				}
				if got := b.Round(); !bitEqual(got, bWant) {
					t.Fatalf("%s: SubAccumulator mutated its argument: %x != %x",
						tc.name, math.Float64bits(got), math.Float64bits(bWant))
				}

				// Repeating the cycle keeps working (state, not luck).
				a.Merge(b)
				a.(engine.Inverter).SubAccumulator(b)
				if got := a.Round(); !bitEqual(got, want) {
					t.Fatalf("%s: second cycle %x != %x", tc.name, math.Float64bits(got), math.Float64bits(want))
				}
			}
		})
	}
}

// TestLawSubIsDeletionNotAddNeg pins the deletion semantics for
// non-finite values: Sub(+Inf) removes a previously added +Inf (restoring
// the prior state), which is different from Add(−Inf) (which poisons the
// sum to NaN).
func TestLawSubIsDeletionNotAddNeg(t *testing.T) {
	for _, e := range invertibleEngines(t) {
		t.Run(e.Name(), func(t *testing.T) {
			acc := e.NewAccumulator()
			acc.Add(1)
			acc.Add(math.Inf(1))
			acc.(engine.Inverter).Sub(math.Inf(1))
			if got := acc.Round(); got != 1 {
				t.Fatalf("Add(+Inf);Sub(+Inf) left %g, want 1", got)
			}
			acc.Add(math.Inf(1))
			acc.Add(math.Inf(-1))
			if got := acc.Round(); !math.IsNaN(got) {
				t.Fatalf("opposing infinities: %g, want NaN", got)
			}
			acc.(engine.Inverter).Sub(math.Inf(-1))
			if got := acc.Round(); !math.IsInf(got, 1) {
				t.Fatalf("after deleting -Inf: %g, want +Inf", got)
			}
			acc.(engine.Inverter).Sub(math.Inf(1))
			if got := acc.Round(); got != 1 {
				t.Fatalf("after deleting +Inf: %g, want 1", got)
			}
			// NaN deletion round-trips too.
			acc.Add(math.NaN())
			if got := acc.Round(); !math.IsNaN(got) {
				t.Fatalf("NaN added: %g, want NaN", got)
			}
			acc.(engine.Inverter).Sub(math.NaN())
			if got := acc.Round(); got != 1 {
				t.Fatalf("after deleting NaN: %g, want 1", got)
			}
		})
	}
}
