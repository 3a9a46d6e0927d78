package accum

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"parsum/internal/fpnum"
)

// oracle32 computes the correctly rounded float32 sum with big.Float.
func oracle32(xs []float32) float32 {
	s := new(big.Float).SetPrec(600)
	var pos, neg, nan bool
	for _, x := range xs {
		switch {
		case x != x:
			nan = true
		case math.IsInf(float64(x), 1):
			pos = true
		case math.IsInf(float64(x), -1):
			neg = true
		default:
			s.Add(s, new(big.Float).SetPrec(600).SetFloat64(float64(x)))
		}
	}
	if nan || (pos && neg) {
		return float32(math.NaN())
	}
	if pos {
		return float32(math.Inf(1))
	}
	if neg {
		return float32(math.Inf(-1))
	}
	f, _ := s.Float32()
	return f
}

func sum32(xs []float32) float32 {
	d := NewFullWindow(0)
	for _, x := range xs {
		d.Add(float64(x))
	}
	return d.Round32()
}

func TestRound32Simple(t *testing.T) {
	cases := []struct {
		xs   []float32
		want float32
	}{
		{nil, 0},
		{[]float32{1, 2, 3}, 6},
		{[]float32{1e30, 1, -1e30}, 1},
		{[]float32{math.MaxFloat32, math.MaxFloat32}, float32(math.Inf(1))},
		{[]float32{-math.MaxFloat32, -math.MaxFloat32}, float32(math.Inf(-1))},
		{[]float32{1.401298464324817e-45}, 1.401298464324817e-45}, // smallest subnormal
	}
	for _, c := range cases {
		if got := sum32(c.xs); got != c.want {
			t.Errorf("sum32(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestRound32AvoidsDoubleRounding(t *testing.T) {
	// 1 + 2^-24 + 2^-50: in float64 the sum is 1 + 2^-24 + 2^-50 exactly
	// representable? 1+2^-24 rounds in float32 to a tie; the 2^-50 sticky
	// must break it upward. Converting the correctly rounded float64
	// (1.0000000596046448) to float32 would hit the tie without the sticky
	// information and round to even (1.0), which is wrong.
	xs := []float32{1, 0x1p-24}
	tiny := []float32{0x1p-50, 0x1p-50} // two halves sum to 2^-49 exactly
	all := append(append([]float32(nil), xs...), tiny...)
	want := oracle32(all)
	if got := sum32(all); got != want {
		t.Fatalf("sticky tie: got %g want %g", got, want)
	}
	// Explicit double-rounding probe: exact value 1 + 2^-24 (an exact tie)
	// must round to even = 1; with any positive dust it must round up.
	if got := sum32([]float32{1, 0x1p-24}); got != 1 {
		t.Fatalf("exact tie: got %g want 1", got)
	}
	d := NewFullWindow(0)
	d.Add(1)
	d.Add(0x1p-24)
	d.Add(0x1p-1074) // dust far below float32 range, still must matter
	if got := d.Round32(); got != 1+0x1p-23 {
		t.Fatalf("dust-broken tie: got %g want %g", got, 1+0x1p-23)
	}
}

func TestRound32Subnormals(t *testing.T) {
	// float32 subnormal arithmetic at the very bottom of the range.
	den := float32(math.Ldexp(1, -149))
	cases := []struct {
		xs   []float32
		want float32
	}{
		{[]float32{den, den}, 2 * den},
		{[]float32{den / 1, -den}, 0},
		{[]float32{0x1p-126, -0x1p-127}, 0x1p-127}, // normal − half = subnormal boundary
	}
	for _, c := range cases {
		if got := sum32(c.xs); got != c.want {
			t.Errorf("sum32(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	// A float64-scale value far below float32 subnormals rounds to zero,
	// but a half-boundary value with sticky rounds to the smallest
	// subnormal.
	d := NewFullWindow(0)
	d.Add(0x1p-151) // quarter of the smallest float32 subnormal step
	if got := d.Round32(); got != 0 {
		t.Fatalf("far-below: got %g want 0", got)
	}
	d.Reset()
	d.Add(0x1p-150) // exactly half the smallest subnormal: tie to even (0)
	if got := d.Round32(); got != 0 {
		t.Fatalf("half tie: got %g want 0", got)
	}
	d.Reset()
	d.Add(0x1p-150)
	d.Add(0x1p-200) // sticky breaks the tie
	if got := d.Round32(); got != den {
		t.Fatalf("half+dust: got %g want %g", got, den)
	}
}

func TestRound32MatchesOracleRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(100)
		xs := make([]float32, n)
		for i := range xs {
			xs[i] = float32(math.Ldexp(r.Float64()*2-1, r.Intn(260)-130))
		}
		got, want := sum32(xs), oracle32(xs)
		if got != want && !(got != got && want != want) { // NaN == NaN here
			t.Fatalf("trial %d: sum32=%g oracle=%g", trial, got, want)
		}
	}
}

func TestRound32Quick(t *testing.T) {
	f := func(raw []uint32) bool {
		xs := make([]float32, 0, len(raw))
		for _, b := range raw {
			x := math.Float32frombits(b)
			if x != x || math.IsInf(float64(x), 0) {
				continue
			}
			xs = append(xs, x)
		}
		return sum32(xs) == oracle32(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRound32AllRepresentations(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(200)
		xs64 := make([]float64, n)
		xs32 := make([]float32, n)
		for i := range xs64 {
			xs32[i] = float32(math.Ldexp(r.Float64()*2-1, r.Intn(200)-100))
			xs64[i] = float64(xs32[i])
		}
		want := oracle32(xs32)
		d := NewFullWindow(uint(8 + r.Intn(25)))
		d.AddSlice(xs64)
		if got := d.Round32(); got != want {
			t.Fatalf("dense.Round32=%g oracle=%g", got, want)
		}
		w := NewWindow(0)
		w.AddSlice(xs64)
		if got := w.Round32(); got != want {
			t.Fatalf("window.Round32=%g oracle=%g", got, want)
		}
		if got := w.ToSparse().Round32(); got != want {
			t.Fatalf("sparse.Round32=%g oracle=%g", got, want)
		}
	}
}

func TestRoundToFormatConsistentWithRoundFromParts(t *testing.T) {
	// For Binary64 the generic rounder must agree with the historical one.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		sig := r.Uint64() & (1<<53 - 1)
		e := r.Intn(2000) - 1074
		round := r.Intn(2) == 1
		sticky := r.Intn(2) == 1
		neg := r.Intn(2) == 1
		a := fpnum.RoundFromParts(neg, sig, e, round, sticky)
		b := fpnum.RoundToFormat(fpnum.Binary64, neg, sig, e, round, sticky)
		if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
			t.Fatalf("sig=%#x e=%d r=%v s=%v: RoundFromParts=%g RoundToFormat=%g",
				sig, e, round, sticky, a, b)
		}
	}
}

func TestRoundToFormatCustomWidth(t *testing.T) {
	// A made-up binary16-like format (11 significand bits): check a few
	// hand-computed roundings.
	f16 := fpnum.Format{SigBits: 11, MinExp: -24, MaxExp: 5}
	d := NewFullWindow(0)
	d.Add(1)
	d.Add(0x1p-11) // exact tie at 11-bit significand: to even = 1
	d.Regularize()
	dig, minIdx := d.Digits()
	if got := RoundDigitStringTo(dig, minIdx, d.Width(), f16); got != 1 {
		t.Fatalf("f16 tie: got %g want 1", got)
	}
	d.Add(0x1p-30) // sticky
	d.Regularize()
	dig, minIdx = d.Digits()
	if got := RoundDigitStringTo(dig, minIdx, d.Width(), f16); got != 1+0x1p-10 {
		t.Fatalf("f16 tie+sticky: got %g want %g", got, 1+0x1p-10)
	}
	// Within range: binary16's largest finite value is (2^11−1)·2^5 = 65504.
	d.Reset()
	d.Add(65504)
	d.Regularize()
	dig, minIdx = d.Digits()
	if got := RoundDigitStringTo(dig, minIdx, d.Width(), f16); got != 65504 {
		t.Fatalf("f16 max: got %g want 65504", got)
	}
	// Overflow for the tiny format: 2^17 exceeds 65504 decisively.
	d.Reset()
	d.Add(0x1p17)
	d.Regularize()
	dig, minIdx = d.Digits()
	if got := RoundDigitStringTo(dig, minIdx, d.Width(), f16); !math.IsInf(got, 1) {
		t.Fatalf("f16 overflow: got %g want +Inf", got)
	}
	// The boundary: 65504 + 16 = 65520 is the exact tie to 2^16, which
	// rounds (to even) up to infinity, while 65504 + 15.9… rounds back.
	d.Reset()
	d.Add(65504)
	d.Add(16)
	d.Regularize()
	dig, minIdx = d.Digits()
	if got := RoundDigitStringTo(dig, minIdx, d.Width(), f16); !math.IsInf(got, 1) {
		t.Fatalf("f16 tie at overflow: got %g want +Inf", got)
	}
	d.Reset()
	d.Add(65504)
	d.Add(15)
	d.Regularize()
	dig, minIdx = d.Digits()
	if got := RoundDigitStringTo(dig, minIdx, d.Width(), f16); got != 65504 {
		t.Fatalf("f16 below tie: got %g want 65504", got)
	}
}

// TestRoundZeroAlloc pins that rounding a window at the canonical width
// copies its digits to the stack, not the heap: the full-range window's
// digits plus the headroom digit fit roundBufLen, and Round, Round32 and
// Small's Round allocate nothing.
func TestRoundZeroAlloc(t *testing.T) {
	if lo, hi := digitBounds(DefaultWidth); hi-lo+2 > roundBufLen {
		t.Fatalf("a full-range window at width %d has %d digits; roundBufLen %d cannot hold them and the headroom digit",
			DefaultWidth, hi-lo+1, roundBufLen)
	}
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = math.Ldexp(float64(i%61)-30.5, i%2000-1070)
	}
	full, grown, small := NewFullWindow(0), NewWindow(0), NewSmall()
	for _, a := range []interface{ AddSlice([]float64) }{full, grown, small} {
		a.AddSlice(xs)
	}
	want := full.Round()
	if math.IsInf(want, 0) || math.IsNaN(want) {
		t.Fatalf("sum %g is not finite, so rounding would skip the digits", want)
	}
	for name, round := range map[string]func() float64{
		"full Window.Round":  full.Round,
		"grown Window.Round": grown.Round,
		"Window.Round32":     func() float64 { return float64(full.Round32()) },
		"Small.Round":        small.Round,
	} {
		if avg := testing.AllocsPerRun(20, func() { round() }); avg != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, avg)
		}
	}
	if grown.Round() != want || small.Round() != want {
		t.Fatalf("rounded sums differ: full %g, grown %g, small %g", want, grown.Round(), small.Round())
	}
}
