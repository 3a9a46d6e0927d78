package accum

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"parsum/internal/oracle"
)

func sparseOf(xs []float64, w uint) *Sparse {
	win := NewWindow(w)
	win.AddSlice(xs)
	return win.ToSparse()
}

func TestFromFloat64Components(t *testing.T) {
	for _, w := range []uint{8, 16, 29, 32} {
		for _, x := range interestingValues {
			s := FromFloat64(x, w)
			if !s.IsRegularized() {
				t.Fatalf("w=%d FromFloat64(%g) not regularized: %v", w, x, s)
			}
			want := x
			if x == 0 {
				want = 0
			}
			if got := s.Round(); got != want {
				t.Errorf("w=%d FromFloat64(%g).Round() = %g", w, x, got)
			}
			// O(1) components: at most ⌈84/W⌉+1.
			if max := int(84/w) + 2; s.Len() > max {
				t.Errorf("w=%d FromFloat64(%g) has %d components (> %d)", w, x, s.Len(), max)
			}
		}
	}
}

func TestMergeSparseMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for trial := 0; trial < 150; trial++ {
		w := uint(8 + r.Intn(25))
		xs := randValues(r, 1+r.Intn(50), true)
		ys := randValues(r, 1+r.Intn(50), true)
		m := MergeSparse(sparseOf(xs, w), sparseOf(ys, w))
		if !m.IsRegularized() {
			t.Fatalf("w=%d merged sparse not (α,β)-regularized", w)
		}
		got := m.Round()
		want := oracle.Sum(append(append([]float64(nil), xs...), ys...))
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("w=%d merge=%g oracle=%g", w, got, want)
		}
	}
}

func TestMergeSparseCarryActivation(t *testing.T) {
	// Two components at the same index whose sum forces a carry into an
	// index inactive in both inputs.
	w := uint(8)
	a := sparseOf([]float64{255}, w) // digit 255 at index 0
	b := sparseOf([]float64{255}, w)
	m := MergeSparse(a, b)
	if got := m.Round(); got != 510 {
		t.Fatalf("255+255 = %g", got)
	}
	if !m.IsRegularized() {
		t.Fatalf("carry-activated merge not regularized: %v", m)
	}
	// P₀ = 510 ≥ R−1 ⟹ carry into index 1, which was inactive.
	idx, _ := m.Components()
	found := false
	for _, ix := range idx {
		if ix == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("carry did not activate index 1: %v", m)
	}
}

func TestMergeSparseKeepsActiveZeros(t *testing.T) {
	// x + (−x) leaves components active with zero digits (the paper's
	// active-index semantics), and Compact prunes them.
	s := MergeSparse(sparseOf([]float64{1.5}, 32), sparseOf([]float64{-1.5}, 32))
	if s.Round() != 0 {
		t.Fatalf("1.5−1.5 = %g", s.Round())
	}
	if s.Len() == 0 {
		t.Fatalf("cancelled components should stay active")
	}
	s.Compact()
	if s.Len() != 0 {
		t.Fatalf("Compact left %d components", s.Len())
	}
}

func TestMergeSparseCommutesAndAssociates(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		w := uint(8 + r.Intn(25))
		a := sparseOf(randValues(r, 1+r.Intn(30), true), w)
		b := sparseOf(randValues(r, 1+r.Intn(30), true), w)
		c := sparseOf(randValues(r, 1+r.Intn(30), true), w)
		ab := MergeSparse(a, b)
		ba := MergeSparse(b, a)
		if ab.Round() != ba.Round() && !(math.IsNaN(ab.Round()) && math.IsNaN(ba.Round())) {
			t.Fatalf("merge not commutative in value")
		}
		l := MergeSparse(MergeSparse(a, b), c).Round()
		rr := MergeSparse(a, MergeSparse(b, c)).Round()
		if l != rr && !(math.IsNaN(l) && math.IsNaN(rr)) {
			t.Fatalf("merge not associative in value: %g vs %g", l, rr)
		}
	}
}

func TestSparseAddIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	xs := randValues(r, 40, true)
	s := NewSparse(0)
	for _, x := range xs {
		s.Add(x)
	}
	got, want := s.Round(), oracle.Sum(xs)
	if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("incremental sparse=%g oracle=%g", got, want)
	}
}

func TestSparseDenseEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 80; trial++ {
		w := uint(8 + r.Intn(25))
		xs := randValues(r, 1+r.Intn(80), true)
		d := NewFullWindow(w)
		d.AddSlice(xs)
		s := sparseOf(xs, w)
		dv, sv := d.Round(), s.Round()
		if dv != sv && !(math.IsNaN(dv) && math.IsNaN(sv)) {
			t.Fatalf("w=%d dense=%g sparse=%g", w, dv, sv)
		}
		// Conversions agree too.
		if c := d.ToSparse().Round(); c != dv && !(math.IsNaN(c) && math.IsNaN(dv)) {
			t.Fatalf("ToSparse changed value: %g vs %g", c, dv)
		}
	}
}

func TestWindowMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for trial := 0; trial < 100; trial++ {
		w := uint(8 + r.Intn(25))
		xs := randValues(r, 1+r.Intn(200), true)
		a := NewWindow(w)
		a.AddSlice(xs)
		got, want := a.Round(), oracle.Sum(xs)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("w=%d window=%g oracle=%g", w, got, want)
		}
	}
}

func TestWindowGrowthBothDirections(t *testing.T) {
	a := NewWindow(32)
	a.Add(1)         // around index 0
	a.Add(0x1p500)   // grow upward
	a.Add(0x1p-500)  // grow downward
	a.Add(-0x1p500)  // cancel the top
	a.Add(-0x1p-500) // cancel the bottom
	if got := a.Round(); got != 1 {
		t.Fatalf("window growth sum = %g, want 1", got)
	}
	if a.Span() == 0 {
		t.Fatalf("window should have grown")
	}
}

// TestWindowMergeRoundsStayBounded: windows merged into each other in
// turn converge on the union of their ranges. (Padding each merge's growth
// once widened them by eight digits a round, so a Sharded's recycled
// shard windows and its base grew by a digit per Sum without bound.)
func TestWindowMergeRoundsStayBounded(t *testing.T) {
	a, b := NewWindow(32), NewWindow(32)
	a.AddSlice([]float64{1, 0x1p300, -0x1p-300})
	b.AddSlice([]float64{3, 0x1p-900, 0x1p900})
	a.Merge(b)
	b.Merge(a)
	span := max(a.Span(), b.Span())
	for round := 0; round < 100; round++ {
		a.Merge(b)
		b.Merge(a)
	}
	if got := max(a.Span(), b.Span()); got != span {
		t.Fatalf("100 merge rounds grew the windows from %d to %d digits", span, got)
	}
}

func TestWindowNegativeTotals(t *testing.T) {
	a := NewWindow(8)
	a.Add(-1e30)
	a.Add(1)
	s := a.ToSparse()
	if !s.IsRegularized() {
		t.Fatalf("negative-total sparse not regularized: %v", s)
	}
	want := oracle.Sum([]float64{-1e30, 1})
	if got := s.Round(); got != want {
		t.Fatalf("got %g want %g", got, want)
	}
}

func TestWindowQuick(t *testing.T) {
	f := func(raw []uint64, wseed uint8) bool {
		w := uint(8 + int(wseed)%25)
		xs := make([]float64, 0, len(raw))
		for _, b := range raw {
			x := math.Float64frombits(b)
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, x)
		}
		a := NewWindow(w)
		a.AddSlice(xs)
		return a.Round() == oracle.Sum(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedExactWhenUntruncated(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	xs := randValues(r, 30, false)
	tr := NewTruncated(sparseOf(xs, 32), 1000)
	if tr.Truncated {
		t.Fatalf("γ=1000 should not truncate %d components", tr.S.Len())
	}
	if !tr.StopFloat(len(xs)) || !tr.StopExponentGap(len(xs)) {
		t.Fatalf("untruncated accumulator must satisfy stopping conditions")
	}
}

func TestTruncatedDropsLowComponents(t *testing.T) {
	// 2^200, 2^100, 1 give one component each at W=32 (indices 6, 3, 0).
	// γ=2 drops the least-significant one.
	s := sparseOf([]float64{0x1p200, 0x1p100, 1}, 32)
	if s.Len() != 3 {
		t.Fatalf("setup: want 3 components, have %v", s)
	}
	tr := NewTruncated(s, 2)
	if !tr.Truncated {
		t.Fatalf("expected truncation, have %d components", tr.S.Len())
	}
	// The rounded value is unaffected (2^100 and 1 are far below the ulp
	// of 2^200), and the stopping condition certifies it: ε_min = 2^96,
	// n·ε_min = 3·2^96 ≪ ulp(2^200)/2 = 2^147.
	if got := tr.S.Round(); got != 0x1p200 {
		t.Fatalf("truncated round = %g", got)
	}
	if !tr.StopFloat(3) {
		t.Fatalf("stop condition should certify 3·2^96 ≪ ulp(2^200)")
	}
	if !tr.StopExponentGap(3) {
		t.Fatalf("exponent-gap stop condition should certify as well")
	}
	// With γ=1 the retained component is index 6 and ε_min = 2^192 exceeds
	// ulp(2^200): certification must fail even though the value happens to
	// round identically — the bound cannot prove it.
	s2 := sparseOf([]float64{0x1p200, 0x1p100, 1}, 32)
	tr1 := NewTruncated(s2, 1)
	if !tr1.Truncated {
		t.Fatalf("γ=1 must truncate")
	}
	if tr1.StopFloat(3) {
		t.Fatalf("γ=1 certification should fail: n·ε_min = 3·2^192 ≫ ulp(2^200)")
	}
}

func TestTruncatedStoppingConditionRejects(t *testing.T) {
	// Two nearly-cancelling huge values whose difference is small: with a
	// tiny γ the truncated result cannot be certified.
	xs := []float64{0x1p300, -0x1p300 + 0x1p240, 1}
	s := sparseOf(xs, 32)
	tr := NewTruncated(s, 1)
	if !tr.Truncated {
		t.Skipf("no truncation at this width; components=%d", s.Len())
	}
	if tr.StopFloat(len(xs)) {
		t.Fatalf("stop condition must reject: dropped mass can move the result")
	}
}

func TestMergeTruncatedBoundsSize(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for trial := 0; trial < 40; trial++ {
		gamma := 1 + r.Intn(6)
		a := NewTruncated(sparseOf(randValues(r, 20, false), 32), gamma)
		b := NewTruncated(sparseOf(randValues(r, 20, false), 32), gamma)
		m := MergeTruncated(a, b, gamma)
		if m.S.Len() > gamma {
			t.Fatalf("γ=%d but %d components survived", gamma, m.S.Len())
		}
	}
}

func TestSmallMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		xs := randValues(r, 1+r.Intn(100), true)
		s := NewSmall()
		s.AddSlice(xs)
		got, want := s.Round(), oracle.Sum(xs)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("small=%g oracle=%g", got, want)
		}
	}
}

func TestSmallMerge(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for trial := 0; trial < 40; trial++ {
		xs := randValues(r, 1+r.Intn(60), true)
		cut := r.Intn(len(xs) + 1)
		a, b := NewSmall(), NewSmall()
		a.AddSlice(xs[:cut])
		b.AddSlice(xs[cut:])
		a.Merge(b)
		got, want := a.Round(), oracle.Sum(xs)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("small merge=%g oracle=%g", got, want)
		}
	}
}

func TestAllRepresentationsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for trial := 0; trial < 60; trial++ {
		xs := randValues(r, 1+r.Intn(120), true)
		want := oracle.Sum(xs)
		d := NewFullWindow(0)
		d.AddSlice(xs)
		wv := NewWindow(0)
		wv.AddSlice(xs)
		sm := NewSmall()
		sm.AddSlice(xs)
		for name, got := range map[string]float64{
			"dense": d.Round(), "window": wv.Round(), "small": sm.Round(),
		} {
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%s=%g oracle=%g", name, got, want)
			}
		}
	}
}
