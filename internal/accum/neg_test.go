package accum

import (
	"math"
	"testing"

	"parsum/internal/oracle"
)

// negCases are value sets whose negation/deletion must round exactly.
func negCases() map[string][]float64 {
	return map[string][]float64{
		"mixed":      {1e100, 1, -1e100, 0x1p-1074, -3.5, math.MaxFloat64, -math.MaxFloat64},
		"denormals":  {5e-324, 5e-324, -1.5e-323, 2.5e-323},
		"specials":   {math.Inf(1), 1, math.NaN(), math.Inf(-1)},
		"zeros":      {0, math.Copysign(0, -1), 1.25},
		"cancelling": {math.Ldexp(1, 1000), -math.Ldexp(1, 1000), math.Ldexp(1, -1000)},
	}
}

func negOf(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = -x
	}
	return out
}

// expectNeg is the rounded value of the negated multiset (exact zero sums
// round to +0; NaN stays NaN).
func expectNeg(xs []float64) float64 {
	return oracle.Sum(negOf(xs))
}

// accOps abstracts the five representations for the shared law checks.
type accOps struct {
	add    func(x float64)
	sub    func(x float64)
	neg    func()
	addNeg func(other string) // builds an accumulator of the named case and AddNegs it
	round  func() float64
}

func eachRep(t *testing.T, f func(name string, mk func() accOps)) {
	build := map[string]func() accOps{
		"dense": func() accOps {
			d := NewFullWindow(0)
			return accOps{d.Add, d.Sub, d.Neg, func(cs string) {
				o := NewFullWindow(0)
				o.AddSlice(negCases()[cs])
				d.AddNeg(o)
			}, d.Round}
		},
		"sparse": func() accOps {
			s := NewSparse(0)
			return accOps{s.Add, s.Sub, s.Neg, func(cs string) {
				o := NewSparse(0)
				for _, x := range negCases()[cs] {
					o.Add(x)
				}
				s.AddNeg(o)
			}, s.Round}
		},
		"window": func() accOps {
			w := NewWindow(0)
			return accOps{w.Add, w.Sub, w.Neg, func(cs string) {
				o := NewWindow(0)
				o.AddSlice(negCases()[cs])
				w.AddNeg(o)
			}, w.Round}
		},
		"small": func() accOps {
			s := NewSmall()
			return accOps{s.Add, s.Sub, s.Neg, func(cs string) {
				o := NewSmall()
				o.AddSlice(negCases()[cs])
				s.AddNeg(o)
			}, s.Round}
		},
	}
	for name, mk := range build {
		f(name, mk)
	}
}

func bitsEq(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestNegMatchesNegatedOracle: Neg flips the represented value exactly —
// the rounded result equals the oracle sum of the negated multiset
// (infinities swap, NaN stays NaN).
func TestNegMatchesNegatedOracle(t *testing.T) {
	eachRep(t, func(rep string, mk func() accOps) {
		for cs, xs := range negCases() {
			a := mk()
			for _, x := range xs {
				a.add(x)
			}
			a.neg()
			if got, want := a.round(), expectNeg(xs); !bitsEq(got, want) {
				t.Errorf("%s/%s: Neg rounds to %x, want %x", rep, cs,
					math.Float64bits(got), math.Float64bits(want))
			}
			// Neg is an involution.
			a.neg()
			if got, want := a.round(), oracle.Sum(xs); !bitsEq(got, want) {
				t.Errorf("%s/%s: double Neg rounds to %x, want %x", rep, cs,
					math.Float64bits(got), math.Float64bits(want))
			}
		}
	})
}

// TestSubDeletesExactly: adding a case then deleting it value-by-value
// restores the empty state (+0 bits), from any base.
func TestSubDeletesExactly(t *testing.T) {
	base := []float64{2.5, -0x1p-1074, 1e200}
	eachRep(t, func(rep string, mk func() accOps) {
		for cs, xs := range negCases() {
			a := mk()
			for _, x := range base {
				a.add(x)
			}
			want := a.round()
			for _, x := range xs {
				a.add(x)
			}
			for _, x := range xs {
				a.sub(x)
			}
			if got := a.round(); !bitsEq(got, want) {
				t.Errorf("%s/%s: add+sub left %x, want %x", rep, cs,
					math.Float64bits(got), math.Float64bits(want))
			}
		}
	})
}

// TestAddNegDeletesMergedAccumulator: AddNeg is the group inverse of
// Merge — deleting a whole accumulator restores the prior rounded bits.
func TestAddNegDeletesMergedAccumulator(t *testing.T) {
	base := []float64{1, math.Ldexp(1, 700), -math.Ldexp(1, -700)}
	eachRep(t, func(rep string, mk func() accOps) {
		for cs := range negCases() {
			a := mk()
			for _, x := range base {
				a.add(x)
			}
			want := a.round()
			for _, x := range negCases()[cs] {
				a.add(x)
			}
			a.addNeg(cs)
			if got := a.round(); !bitsEq(got, want) {
				t.Errorf("%s/%s: AddNeg left %x, want %x", rep, cs,
					math.Float64bits(got), math.Float64bits(want))
			}
		}
	})
}

// TestSubLazyBudget: a long alternating add/sub stream must regularize on
// schedule rather than overflow digits (exercises the lazy-add accounting
// on the deletion path).
func TestSubLazyBudget(t *testing.T) {
	d := NewFullWindow(MaxWidth) // smallest lazy budget: 2^(62-32) adds
	w := NewWindow(MaxWidth)
	const n = 5000
	for i := 0; i < n; i++ {
		d.Add(math.MaxFloat64)
		d.Sub(math.MaxFloat64 / 2)
		w.Add(math.MaxFloat64)
		w.Sub(math.MaxFloat64 / 2)
	}
	// The exact net sum is n × MaxFloat64/2, far beyond the float64 range.
	dv, wv := d.Round(), w.Round()
	if !bitsEq(dv, wv) {
		t.Fatalf("dense %x != window %x", math.Float64bits(dv), math.Float64bits(wv))
	}
	if !math.IsInf(dv, 1) {
		t.Fatalf("n/2 × MaxFloat64 should round to +Inf, got %g", dv)
	}
}

// TestSparseSubViaMerge: Sparse.Sub on a representation built through
// MergeSparse keeps components regularized.
func TestSparseSubViaMerge(t *testing.T) {
	a := FromFloat64(1e100, 0)
	b := FromFloat64(-1, 0)
	m := MergeSparse(a, b)
	m.Sub(1e100)
	if got := m.Round(); got != -1 {
		t.Fatalf("after Sub: %g, want -1", got)
	}
	if !m.IsRegularized() {
		t.Fatal("Sub left sparse unregularized")
	}
	m.Sub(math.Inf(1)) // over-deletion of a special reads as absent
	if got := m.Round(); got != -1 {
		t.Fatalf("over-deleted special changed value: %g", got)
	}
	m.Add(math.Inf(1)) // cancels the deficit, still absent
	if got := m.Round(); got != -1 {
		t.Fatalf("special deficit did not cancel: %g", got)
	}
}
