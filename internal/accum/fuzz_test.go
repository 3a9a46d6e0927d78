package accum

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzBytesToFloats reinterprets data as little-endian float64s, capped so
// a large fuzz input cannot make one execution arbitrarily slow.
func fuzzBytesToFloats(data []byte, max int) []float64 {
	n := len(data) / 8
	if n > max {
		n = max
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return xs
}

// FuzzCodecRoundTrip is the codec half of the fuzz gauntlet, with two
// obligations per input:
//
//  1. Arbitrary bytes never panic any decoder — they either decode or
//     error. When a Sparse payload does decode, re-encoding it must
//     round-trip to the same exact value.
//  2. Accumulators built from the input (reinterpreted as float64s, with
//     a width byte) must encode and decode to bit-identical values for
//     every representation: sparse, dense, window, small.
func FuzzCodecRoundTrip(f *testing.F) {
	// Valid encodings, truncations, and garbage seed the "decode anything"
	// path; float payloads seed the build-encode-decode path.
	seed := func(xs []float64, w uint) {
		win := NewWindow(w)
		win.AddSlice(xs)
		if data, err := win.ToSparse().MarshalBinary(); err == nil {
			f.Add(data)
		}
		d := NewFullWindow(w)
		d.AddSlice(xs)
		f.Add(d.MarshalKind(KindDense))
	}
	seed(nil, 32)
	seed([]float64{1e100, 1, -1e100}, 32)
	seed([]float64{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64}, 16)
	seed([]float64{math.SmallestNonzeroFloat64, -2 * math.SmallestNonzeroFloat64}, 8)
	seed([]float64{math.Inf(1), math.NaN()}, 24)
	f.Add([]byte{})
	f.Add([]byte{0xA5})
	f.Add([]byte{0xA5, 'S', 1, 32, 0, 0x80, 0x80, 0x80, 0x08})
	f.Add([]byte{0xA5, 'D', 1, 64, 0, 0})
	f.Add([]byte{0xA5, 'N', 1, 32, 7, 1, 2, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Obligation 1: decoding arbitrary bytes never panics, and a
		// successful Sparse decode re-encodes to the same exact value.
		var s Sparse
		if err := s.UnmarshalBinary(data); err == nil {
			want := s.Round()
			re, err := s.MarshalBinary()
			if err != nil {
				t.Fatalf("decoded payload failed to re-encode: %v", err)
			}
			var s2 Sparse
			if err := s2.UnmarshalBinary(re); err != nil {
				t.Fatalf("re-encoded payload failed to decode: %v", err)
			}
			got := s2.Round()
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("re-encode changed value: %g -> %g", want, got)
			}
		}
		var d Window
		_ = d.UnmarshalKind(KindDense, data)
		var w Window
		_ = w.UnmarshalBinary(data)
		var sm Small
		_ = sm.UnmarshalBinary(data)

		// Obligation 2: encode(build(floats)) decodes bit-identically.
		if len(data) < 9 {
			return
		}
		width := uint(8 + int(data[0])%25) // [8, 32]
		xs := fuzzBytesToFloats(data[1:], 128)

		check := func(name string, enc func() ([]byte, error), dec func([]byte) (float64, error), want float64) {
			blob, err := enc()
			if err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			got, err := dec(blob)
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%s: round-trip %g != %g (width %d, xs %v)", name, got, want, width, xs)
			}
		}

		win := NewWindow(width)
		win.AddSlice(xs)
		want := win.Round()
		check("window", win.MarshalBinary, func(b []byte) (float64, error) {
			var w2 Window
			if err := w2.UnmarshalBinary(b); err != nil {
				return 0, err
			}
			return w2.Round(), nil
		}, want)

		sp := win.ToSparse()
		check("sparse", sp.MarshalBinary, func(b []byte) (float64, error) {
			var s2 Sparse
			if err := s2.UnmarshalBinary(b); err != nil {
				return 0, err
			}
			return s2.Round(), nil
		}, want)

		dd := NewFullWindow(width)
		dd.AddSlice(xs)
		check("dense", func() ([]byte, error) { return dd.MarshalKind(KindDense), nil }, func(b []byte) (float64, error) {
			var d2 Window
			if err := d2.UnmarshalKind(KindDense, b); err != nil {
				return 0, err
			}
			return d2.Round(), nil
		}, want)

		ss := NewSmall()
		ss.AddSlice(xs)
		check("small", ss.MarshalBinary, func(b []byte) (float64, error) {
			var s2 Small
			if err := s2.UnmarshalBinary(b); err != nil {
				return 0, err
			}
			return s2.Round(), nil
		}, want)
	})
}
