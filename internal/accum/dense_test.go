package accum

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"parsum/internal/fpnum"
	"parsum/internal/oracle"
)

// interestingValues are edge-case doubles that every accumulator test mixes
// into its inputs.
var interestingValues = []float64{
	0, math.Copysign(0, -1),
	1, -1, 0.5, -0.5, 1.5,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
	math.MaxFloat64 / 2, -math.MaxFloat64 / 2,
	0x1p-1022, -0x1p-1022, // smallest normals
	0x1p-1022 / 2, // subnormal
	0x1p1023, 0x1p-1074, -0x1p-1074,
	1e308, -1e308, 1e-308, 3.14159265358979, -2.718281828459045,
	0x1.fffffffffffffp52, // largest odd significand at weight 1
	6755399441055744.0,   // 3·2^51, integer boundary
}

func randValues(r *rand.Rand, n int, wild bool) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch r.Intn(4) {
		case 0:
			xs[i] = interestingValues[r.Intn(len(interestingValues))]
			if !wild && math.Abs(xs[i]) > 1e300 {
				xs[i] /= 1e20 // avoid overflowing exact sums in shape tests
			}
		case 1:
			xs[i] = r.NormFloat64()
		case 2:
			e := r.Intn(600) - 300
			xs[i] = math.Ldexp(r.Float64()*2-1, e)
		default:
			xs[i] = float64(r.Int63n(1<<53)) - 1<<52
		}
	}
	return xs
}

func TestDenseSingleValueRoundTrip(t *testing.T) {
	for _, w := range []uint{8, 13, 16, 24, 29, 32} {
		for _, x := range interestingValues {
			d := NewFullWindow(w)
			d.Add(x)
			got := d.Round()
			want := x
			if x == 0 {
				want = 0 // −0 normalizes to +0 through the exact sum
			}
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("w=%d roundtrip(%g) = %g", w, x, got)
			}
		}
	}
}

func TestDenseMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(60)
		xs := randValues(r, n, true)
		d := NewFullWindow(uint(8 + r.Intn(25)))
		d.AddSlice(xs)
		got := d.Round()
		want := oracle.Sum(xs)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("trial %d (n=%d): Dense=%g oracle=%g\nxs=%v", trial, n, got, want, xs)
		}
	}
}

func TestDenseCancellation(t *testing.T) {
	// Massive cancellation: pairs that annihilate exactly plus a tiny residue.
	d := NewFullWindow(0)
	const n = 10000
	for i := 0; i < n; i++ {
		v := math.Ldexp(1+float64(i), 900-i%1800)
		d.Add(v)
		d.Add(-v)
	}
	d.Add(0x1p-1074)
	if got := d.Round(); got != 0x1p-1074 {
		t.Fatalf("residue after cancellation = %g, want smallest subnormal", got)
	}
}

func TestDenseSpecials(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, math.Inf(1)}, math.Inf(1)},
		{[]float64{math.Inf(-1), -1}, math.Inf(-1)},
		{[]float64{math.Inf(1), math.Inf(-1)}, math.NaN()},
		{[]float64{math.NaN(), 1}, math.NaN()},
		{[]float64{math.Inf(1), math.NaN()}, math.NaN()},
	}
	for _, c := range cases {
		d := NewFullWindow(0)
		d.AddSlice(c.xs)
		got := d.Round()
		if got != c.want && !(math.IsNaN(got) && math.IsNaN(c.want)) {
			t.Errorf("sum%v = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestDenseOverflowToInf(t *testing.T) {
	d := NewFullWindow(0)
	d.Add(math.MaxFloat64)
	d.Add(math.MaxFloat64)
	if got := d.Round(); !math.IsInf(got, 1) {
		t.Fatalf("2·MaxFloat64 = %g, want +Inf", got)
	}
	d.Reset()
	d.Add(-math.MaxFloat64)
	d.Add(-math.MaxFloat64)
	if got := d.Round(); !math.IsInf(got, -1) {
		t.Fatalf("−2·MaxFloat64 = %g, want −Inf", got)
	}
	// The exact boundary: MaxFloat64 + ulp/2 rounds to +Inf (ties away
	// would; to-even rounds to Inf since the candidate 2^1024 is even and
	// MaxFloat64's significand is odd). MaxFloat64 + ulp/4 rounds back down.
	d.Reset()
	d.Add(math.MaxFloat64)
	d.Add(0x1p970) // half the gap to 2^1024
	if got := d.Round(); !math.IsInf(got, 1) {
		t.Fatalf("MaxFloat64 + 2^970 = %g, want +Inf (round half to even)", got)
	}
	d.Reset()
	d.Add(math.MaxFloat64)
	d.Add(0x1p969)
	if got := d.Round(); got != math.MaxFloat64 {
		t.Fatalf("MaxFloat64 + 2^969 = %g, want MaxFloat64", got)
	}
}

func TestDenseSubnormalResults(t *testing.T) {
	// Differences of normals landing in the subnormal range, with rounding.
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{0x1p-1022, -0x1p-1023}, 0x1p-1023},
		{[]float64{0x1p-1070, 0x1p-1074}, 0x1p-1070 + 0x1p-1074},
		{[]float64{0x1p-1074, 0x1p-1074}, 0x1p-1073},
		{[]float64{0x1.8p-1073, -0x1p-1074}, 0x1p-1073},
	}
	for _, c := range cases {
		d := NewFullWindow(0)
		d.AddSlice(c.xs)
		if got := d.Round(); got != c.want {
			t.Errorf("sum%v = %g (%b), want %g (%b)", c.xs, got, got, c.want, c.want)
		}
	}
}

func TestDenseRoundHalfEven(t *testing.T) {
	// 1 + 2^-53 is exactly halfway between 1 and 1+2^-52: rounds to 1 (even).
	d := NewFullWindow(0)
	d.Add(1)
	d.Add(0x1p-53)
	if got := d.Round(); got != 1 {
		t.Fatalf("1 + 2^-53 = %g, want 1", got)
	}
	// (1+2^-52) + 2^-53 is halfway and rounds up to 1+2^-51 (even significand).
	d.Reset()
	d.Add(1 + 0x1p-52)
	d.Add(0x1p-53)
	if got := d.Round(); got != 1+0x1p-51 {
		t.Fatalf("(1+2^-52) + 2^-53 = %g, want 1+2^-51", got)
	}
	// A sticky bit below the half breaks the tie upward.
	d.Reset()
	d.Add(1)
	d.Add(0x1p-53)
	d.Add(0x1p-1074)
	if got := d.Round(); got != 1+0x1p-52 {
		t.Fatalf("1 + 2^-53 + 2^-1074 = %g, want 1+2^-52", got)
	}
}

func TestDenseLemma1Invariant(t *testing.T) {
	// After Regularize and after AddRegularized, every digit must be in
	// [−α, β] = [−(R−1), R−1] (Lemma 1), and the value must be preserved,
	// for full-range and growable windows of any two spans.
	r := rand.New(rand.NewSource(2))
	mk := []func(uint) *Window{NewFullWindow, NewWindow}
	for _, w := range []uint{8, 16, 27, 32} {
		for trial := 0; trial < 40; trial++ {
			xs := randValues(r, 1+r.Intn(40), true)
			ys := randValues(r, 1+r.Intn(40), true)
			a, b := mk[trial%2](w), mk[trial/2%2](w)
			a.AddSlice(xs)
			b.AddSlice(ys)
			a.Regularize()
			b.Regularize()
			if !a.IsRegularized() || !b.IsRegularized() {
				t.Fatalf("w=%d: Regularize violated (α,β) range", w)
			}
			a.AddRegularized(b)
			if !a.IsRegularized() {
				t.Fatalf("w=%d: AddRegularized violated (α,β) range", w)
			}
			got := a.Round()
			want := oracle.Sum(append(append([]float64(nil), xs...), ys...))
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("w=%d: AddRegularized=%g oracle=%g", w, got, want)
			}
		}
	}
}

func TestDenseMergeMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		xs := randValues(r, 1+r.Intn(100), true)
		cut := r.Intn(len(xs) + 1)
		a, b, c := NewFullWindow(0), NewFullWindow(0), NewFullWindow(0)
		a.AddSlice(xs[:cut])
		b.AddSlice(xs[cut:])
		c.AddSlice(xs)
		a.Merge(b)
		if ga, gc := a.Round(), c.Round(); ga != gc && !(math.IsNaN(ga) && math.IsNaN(gc)) {
			t.Fatalf("merge=%g sequential=%g", ga, gc)
		}
	}
}

func TestDenseLazyRegularizationOverflow(t *testing.T) {
	// Exceed the lazy-add budget with same-sign maximal contributions and
	// confirm the forced regularization keeps the value exact. Width 8
	// makes the budget small enough to cross quickly (2^54 would be too
	// slow; instead check the trigger fires by lowering it).
	d := NewFullWindow(8)
	d.maxAdd = 100
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 255 // R−1 at w=8: worst-case per-digit contribution
	}
	d.AddSlice(xs)
	if got := d.Round(); got != 255000 {
		t.Fatalf("lazy overflow: got %g want 255000", got)
	}
}

func TestDenseQuickFaithful(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(raw []uint64) bool {
		xs := make([]float64, 0, len(raw))
		for _, b := range raw {
			x := math.Float64frombits(b)
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, x)
		}
		d := NewFullWindow(0)
		d.AddSlice(xs)
		return d.Round() == oracle.Sum(xs)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestComposeDecompose(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		x := math.Float64frombits(r.Uint64())
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
			continue
		}
		neg, m, e := fpnum.Decompose(x)
		if got := fpnum.Compose(neg, m, e); got != x {
			t.Fatalf("Compose(Decompose(%g)) = %g", x, got)
		}
	}
}
