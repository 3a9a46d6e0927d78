package accum

import (
	"bytes"
	"encoding"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"parsum/internal/oracle"
)

var (
	_ encoding.BinaryMarshaler   = (*Sparse)(nil)
	_ encoding.BinaryUnmarshaler = (*Sparse)(nil)
	_ encoding.BinaryMarshaler   = (*Window)(nil)
	_ encoding.BinaryUnmarshaler = (*Window)(nil)
	_ encoding.BinaryMarshaler   = (*Small)(nil)
	_ encoding.BinaryUnmarshaler = (*Small)(nil)
)

func TestSparseCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		w := uint(8 + r.Intn(25))
		xs := randValues(r, 1+r.Intn(60), true)
		s := sparseOf(xs, w)
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Sparse
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		g1, g2 := s.Round(), back.Round()
		if g1 != g2 && !(math.IsNaN(g1) && math.IsNaN(g2)) {
			t.Fatalf("roundtrip value changed: %g vs %g", g1, g2)
		}
		if back.Width() != w || back.Len() != s.Len() {
			t.Fatalf("roundtrip shape changed")
		}
	}
}

func TestDenseCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		w := uint(8 + r.Intn(25))
		xs := randValues(r, 1+r.Intn(60), true)
		d := NewFullWindow(w)
		d.AddSlice(xs)
		data := d.MarshalKind(KindDense)
		var back Window
		if err := back.UnmarshalKind(KindDense, data); err != nil {
			t.Fatal(err)
		}
		want := oracle.Sum(xs)
		if got := back.Round(); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("roundtrip=%g oracle=%g", got, want)
		}
		// Decoded accumulators must remain usable.
		back.Add(1.5)
		d2 := NewFullWindow(w)
		d2.AddSlice(xs)
		d2.Add(1.5)
		ga, gb := back.Round(), d2.Round()
		if ga != gb && !(math.IsNaN(ga) && math.IsNaN(gb)) {
			t.Fatalf("decoded accumulator diverged after Add")
		}
	}
}

func TestCodecSpecialsSurvive(t *testing.T) {
	for _, xs := range [][]float64{
		{math.Inf(1), 1},
		{math.Inf(-1)},
		{math.Inf(1), math.Inf(-1)},
		{math.NaN()},
	} {
		s := NewSparse(0)
		for _, x := range xs {
			s.Add(x)
		}
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Sparse
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		a, b := s.Round(), back.Round()
		if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
			t.Fatalf("specials lost: %g vs %g", a, b)
		}
	}
}

// TestCodecSpecialMultiplicities: the extended-counts form preserves the
// exact signed multiplicity of every special, so deleting a non-finite
// value after a wire hop is still exact: an accumulator holding two +Infs
// must survive a round trip and one deletion as +Inf, not as finite; a
// net deletion (count −1) must survive and later cancel an addition.
func TestCodecSpecialMultiplicities(t *testing.T) {
	s := NewSparse(0)
	s.Add(1.5)
	s.Add(math.Inf(1))
	s.Add(math.Inf(1))
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Sparse
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	back.Sub(math.Inf(1))
	if got := back.Round(); !math.IsInf(got, 1) {
		t.Fatalf("after deleting 1 of 2 decoded +Infs: %g, want +Inf", got)
	}
	back.Sub(math.Inf(1))
	if got := back.Round(); got != 1.5 {
		t.Fatalf("after deleting both: %g, want 1.5", got)
	}

	// Net deletion: a combiner that only retracted a NaN ships count −1,
	// which must cancel a NaN on the receiving side after a round trip.
	d := NewFullWindow(0)
	d.Sub(math.NaN())
	data = d.MarshalKind(KindDense)
	var dback Window
	if err := dback.UnmarshalKind(KindDense, data); err != nil {
		t.Fatal(err)
	}
	dback.Add(2.5)
	if got := dback.Round(); got != 2.5 {
		t.Fatalf("net NaN deletion decoded wrong: %g, want 2.5", got)
	}
	dback.Add(math.NaN())
	if got := dback.Round(); got != 2.5 {
		t.Fatalf("decoded NaN deficit did not cancel: %g, want 2.5", got)
	}

	// Ordinary states (multiplicities in {0,1}) keep the legacy presence
	// encoding: byte-identical header, no extension.
	p := NewSparse(0)
	p.Add(math.NaN())
	data, err = p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if data[4] != 1 {
		t.Fatalf("single NaN should use presence flags, got flags %#x", data[4])
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	s := sparseOf([]float64{1.5, -3e40, 0x1p-300}, 32)
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Sparse
	// Truncations at every prefix length must error, never panic.
	for i := 0; i < len(data); i++ {
		if err := back.UnmarshalBinary(data[:i]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", i)
		}
	}
	// Header corruptions.
	for _, mut := range []struct {
		pos int
		val byte
	}{
		{0, 0x00}, // magic
		{1, 'X'},  // kind
		{2, 99},   // version
		{3, 64},   // width out of range
		{4, 0xFF}, // unknown flags
	} {
		bad := append([]byte(nil), data...)
		bad[mut.pos] = mut.val
		if err := back.UnmarshalBinary(bad); err == nil {
			t.Fatalf("corruption at %d accepted", mut.pos)
		}
	}
	// Trailing garbage.
	if err := back.UnmarshalBinary(append(append([]byte(nil), data...), 1, 2, 3)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Kind confusion: a sparse blob must not decode as dense.
	var dd Window
	if err := dd.UnmarshalKind(KindDense, data); err == nil {
		t.Fatal("sparse decoded as dense")
	}
}

func TestCodecQuickNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		var s Sparse
		_ = s.UnmarshalBinary(data) // must not panic; error is fine
		var d Window
		_ = d.UnmarshalKind(KindDense, data)
		var w Window
		_ = w.UnmarshalBinary(data)
		var sm Small
		_ = sm.UnmarshalBinary(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// streamCodec is the shape every streaming accumulator codec shares, so
// the round-trip tests below can run one table over all of them.
type streamCodec interface {
	Add(x float64)
	Round() float64
	MarshalBinary() ([]byte, error)
	UnmarshalBinary([]byte) error
}

func streamCodecs(w uint) map[string]func() streamCodec {
	return map[string]func() streamCodec{
		"window": func() streamCodec { return NewWindow(w) },
		"small":  func() streamCodec { return NewSmall() },
	}
}

func TestStreamingCodecsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for name, mk := range streamCodecs(0) {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 60; trial++ {
				xs := randValues(r, 1+r.Intn(80), true)
				a := mk()
				for _, x := range xs {
					a.Add(x)
				}
				want := a.Round()
				data, err := a.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				back := mk()
				if err := back.UnmarshalBinary(data); err != nil {
					t.Fatal(err)
				}
				got := back.Round()
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("roundtrip=%g want=%g", got, want)
				}
				// Re-encoding the decoded value must round-trip again
				// (decode(encode) is idempotent on the represented value).
				data2, err := back.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				back2 := mk()
				if err := back2.UnmarshalBinary(data2); err != nil {
					t.Fatal(err)
				}
				if g2 := back2.Round(); g2 != want && !(math.IsNaN(g2) && math.IsNaN(want)) {
					t.Fatalf("second roundtrip=%g want=%g", g2, want)
				}
				// Decoded accumulators stay usable.
				back.Add(0.375)
				a.Add(0.375)
				ga, gb := back.Round(), a.Round()
				if ga != gb && !(math.IsNaN(ga) && math.IsNaN(gb)) {
					t.Fatalf("decoded accumulator diverged after Add: %g vs %g", ga, gb)
				}
			}
		})
	}
}

func TestWindowSparseShareWireKind(t *testing.T) {
	// A Window blob decodes as Sparse and vice versa: both are the 'S'
	// sparse-component payload.
	xs := []float64{1e100, 1, -1e100, 0x1p-1040}
	w := NewWindow(0)
	w.AddSlice(xs)
	data, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var s Sparse
	if err := s.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Round(), oracle.Sum(xs); got != want {
		t.Fatalf("window→sparse=%g want=%g", got, want)
	}
	data2, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var w2 Window
	if err := w2.UnmarshalBinary(data2); err != nil {
		t.Fatal(err)
	}
	if got, want := w2.Round(), oracle.Sum(xs); got != want {
		t.Fatalf("sparse→window=%g want=%g", got, want)
	}
}

// TestNegativeTopCollapsed: every kind ships a negative value's top as one
// −1 component, so 'S', 'D' and 'N' payloads of one value are the same
// bytes apart from the kind byte. The expanded form — the run
// (R−1, …, R−1, −1) reaching the top of the digit range, which 'D' and
// 'N' payloads carried before — still decodes to the same value and
// re-encodes collapsed.
func TestNegativeTopCollapsed(t *testing.T) {
	_, top := digitBounds(DefaultWidth)
	mask := int64(1)<<DefaultWidth - 1
	for _, x := range []float64{-1, -3.5, -1e-300, -1e300, -math.MaxFloat64, -5e-324} {
		w := NewWindow(0)
		w.Add(x)
		sparse, dense := w.MarshalKind(KindSparse), w.MarshalKind(KindDense)
		s := NewSmall()
		s.Add(x)
		small, _ := s.MarshalBinary()
		for kind, b := range map[byte][]byte{'D': dense, 'N': small} {
			if b[1] != kind || !bytes.Equal(b[2:], sparse[2:]) || b[0] != sparse[0] {
				t.Errorf("%g: kind %q payload\n  % x\nis not the 'S' payload\n  % x\napart from its kind byte", x, kind, b, sparse)
			}
		}

		var idx []int32
		var dig []int64
		win, base := w.Digits()
		for i, v := range win {
			if v != 0 {
				idx, dig = append(idx, int32(base+i)), append(dig, v)
			}
		}
		last := len(idx) - 1
		if dig[last] != -1 {
			t.Fatalf("%g: regularized top digit %d, want -1", x, dig[last])
		}
		for i := int(idx[last]); i < top; i++ {
			idx[last], dig[last] = int32(i), mask
			idx, dig = append(idx, 0), append(dig, 0)
			last++
		}
		idx[last], dig[last] = int32(top), -1

		var wd Window
		if err := wd.UnmarshalKind(KindDense, appendComponents(appendHeader(nil, KindDense, DefaultWidth, special{}), idx, dig)); err != nil {
			t.Fatalf("%g: expanded 'D': %v", x, err)
		}
		var sd Small
		if err := sd.UnmarshalBinary(appendComponents(appendHeader(nil, 'N', smallWidth, special{}), idx, dig)); err != nil {
			t.Fatalf("%g: expanded 'N': %v", x, err)
		}
		if wd.Round() != x || sd.Round() != x {
			t.Errorf("expanded %g decodes to 'D' %g, 'N' %g", x, wd.Round(), sd.Round())
		}
		var wc Window
		if err := wc.UnmarshalKind(KindDense, dense); err != nil {
			t.Fatal(err)
		}
		if gd, gb := wd.Digits(); !slices.Equal(gd, wc.win) || gb != wc.base {
			t.Errorf("%g: expanded 'D' decodes to digits %v at %d, collapsed to %v at %d", x, gd, gb, wc.win, wc.base)
		}
		if again := wd.MarshalKind(KindDense); !bytes.Equal(again, dense) {
			t.Errorf("%g: expanded 'D' re-encodes to\n  % x\nwant\n  % x", x, again, dense)
		}
		if again, _ := sd.MarshalBinary(); !bytes.Equal(again, small) {
			t.Errorf("%g: expanded 'N' re-encodes to\n  % x\nwant\n  % x", x, again, small)
		}
	}
}

// TestCodecMalformedPayloads is the table of crafted payloads the decoder
// must reject with an error (never a panic, never a giant allocation):
// the bug class a networked merge service turns security-relevant.
func TestCodecMalformedPayloads(t *testing.T) {
	// A valid minimal header for kind 'S', width 32, no specials.
	head := func(kind byte, w byte, flags byte) []byte {
		return []byte{0xA5, kind, 1, w, flags}
	}
	var varintOverflow = []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"header-only-truncated", []byte{0xA5, 'S', 1, 32}},
		{"missing-count", head('S', 32, 0)},
		{"count-overflows-uint64", append(head('S', 32, 0), varintOverflow...)},
		{"count-exceeds-buffer", append(head('S', 32, 0), 0x20)},                                                    // 32 components, 0 bytes
		{"count-exceeds-digit-range", append(head('S', 8, 0), append([]byte{0xAC, 0x02}, make([]byte, 600)...)...)}, // 300 components at W=8
		{"component-truncated-mid-pair", append(head('S', 32, 0), 1, 2)},
		{"index-varint-overflow", append(head('S', 32, 0), append([]byte{1}, varintOverflow...)...)},
		{"digit-varint-overflow", append(head('S', 32, 0), append([]byte{1, 2}, varintOverflow...)...)},
		{"index-below-range", append(head('S', 32, 0), 1, 0xFF, 0x7F, 2)},      // idx = −8192
		{"index-above-range", append(head('S', 32, 0), 1, 0xFE, 0x7F, 2)},      // idx = +8191
		{"indices-not-ascending", append(head('S', 32, 0), 2, 4, 2, 4, 2)},     // idx 2 twice
		{"digit-out-of-alpha-beta", append(head('S', 8, 0), 1, 2, 0x80, 0x04)}, // dig = 256 at W=8
		{"trailing-bytes", append(head('S', 32, 0), 1, 2, 2, 0xEE)},            //
		{"unknown-flags", append(head('S', 32, 0x09), 0)},                      // bit 3 with presence bits set
		{"unknown-flags-high", append(head('S', 32, 0x1F), 0)},                 //
		{"extended-counts-truncated", head('S', 32, 0x08)},                     // bit 3 but no varints
		{"extended-counts-partial", append(head('S', 32, 0x08), 2, 0)},         // 2 of 3 counts
		{"extended-count-overflow", append(head('S', 32, 0x08), varintOverflow...)},
		{"bad-width-low", append(head('S', 7, 0), 0)},                            //
		{"bad-width-high", append(head('S', 33, 0), 0)},                          //
		{"small-wrong-width", append(head('N', 16, 0), 0)},                       // Small is fixed W=32
		{"large-wrong-width", append(head('L', 16, 0), 0)},                       // the retired Large kind
		{"sparse-as-dense-kind-confusion", append(head('S', 32, 0), 0)},          // decoded below as dense
		{"count-lies-buffer-has-fewer", append(head('S', 32, 0), 3, 1, 2, 2, 2)}, // 3 claimed, 2 present
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s Sparse
			if tc.name == "sparse-as-dense-kind-confusion" {
				var d Window
				if err := d.UnmarshalKind(KindDense, tc.data); err == nil {
					t.Fatal("kind confusion accepted")
				}
				return
			}
			var w, d Window
			var sm Small
			errs := []error{
				s.UnmarshalBinary(tc.data),
				w.UnmarshalBinary(tc.data),
				sm.UnmarshalBinary(tc.data),
				d.UnmarshalKind(KindDense, tc.data),
			}
			for i, err := range errs {
				if err == nil {
					// Only the decoder whose kind byte matches could legally
					// accept; none of these payloads is valid for any kind.
					t.Fatalf("decoder %d accepted malformed payload % x", i, tc.data)
				}
			}
		})
	}
}

// TestCodecHostileCountNoHugeAlloc pins the truncation fix: a tiny payload
// claiming 2^24 components must be rejected without allocating component
// storage for them.
func TestCodecHostileCountNoHugeAlloc(t *testing.T) {
	payload := []byte{0xA5, 'S', 1, 32, 0, 0x80, 0x80, 0x80, 0x08} // count = 2^24
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var s Sparse
	if err := s.UnmarshalBinary(payload); err == nil {
		t.Fatal("hostile count accepted")
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Fatalf("decoder allocated %d bytes for a %d-byte hostile payload", grown, len(payload))
	}
}

func TestCodecCrossProcessMergeScenario(t *testing.T) {
	// The distributed-reducer story: partial sums marshaled, shipped,
	// unmarshaled, merged — exact end to end.
	r := rand.New(rand.NewSource(3))
	xs := randValues(r, 300, true)
	var blobs [][]byte
	for lo := 0; lo < len(xs); lo += 50 {
		hi := lo + 50
		if hi > len(xs) {
			hi = len(xs)
		}
		part := sparseOf(xs[lo:hi], 32)
		b, err := part.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, b)
	}
	root := NewSparse(32)
	for _, b := range blobs {
		var p Sparse
		if err := p.UnmarshalBinary(b); err != nil {
			t.Fatal(err)
		}
		root = MergeSparse(root, &p)
	}
	want := oracle.Sum(xs)
	if got := root.Round(); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("distributed merge=%g oracle=%g", got, want)
	}
}
