// Fuzz half of the engine conformance suite: FuzzSumEngines drives every
// accuracy-declaring engine against the math/big oracle on arbitrary
// inputs, and FuzzPartialWire attacks the wire-partial envelope with
// arbitrary bytes while checking valid partials round-trip exactly.
package engine_test

import (
	"encoding/binary"
	"math"
	"testing"

	"parsum/internal/engine"
	"parsum/internal/oracle"
)

// fuzzBytesToFloats reinterprets data as little-endian float64s, capped so
// one execution stays fast (the oracle is exact but slow).
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

func floatsToBytes(xs []float64) []byte {
	data := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(x))
	}
	return data
}

// FuzzSumEngines: every engine claiming CorrectlyRounded must be
// bit-identical to the math/big oracle, and every engine claiming
// Faithful must pass the oracle's faithfulness check, on any input the
// fuzzer invents. Streaming engines must additionally reproduce their
// one-shot sum through a split accumulator merge.
func FuzzSumEngines(f *testing.F) {
	// The adversarial conformance corpus seeds the fuzzer: these are the
	// inputs known to break inexact or carelessly merged summation.
	for _, tc := range adversarialCases() {
		xs := tc.xs
		if len(xs) > 64 {
			xs = xs[:64]
		}
		f.Add(floatsToBytes(xs))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := fuzzBytesToFloats(data, 256)
		want := oracle.Sum(xs)
		for _, e := range engine.All() {
			caps := e.Caps()
			if !caps.Faithful {
				continue
			}
			got := e.Sum(xs)
			if caps.CorrectlyRounded {
				if !bitEqual(got, want) {
					t.Errorf("%s: Sum=%g (bits %x) oracle=%g (bits %x) on %v",
						e.Name(), got, math.Float64bits(got), want, math.Float64bits(want), xs)
				}
			} else if !oracle.Faithful(xs, got) {
				t.Errorf("%s: Sum=%g is not faithful (oracle %g) on %v", e.Name(), got, want, xs)
			}
			if !caps.Streaming {
				continue
			}
			// Split/merge determinism under fuzz: two partials merged must
			// reproduce the one-shot bits.
			a, b := e.NewAccumulator(), e.NewAccumulator()
			mid := len(xs) / 2
			a.AddSlice(xs[:mid])
			b.AddSlice(xs[mid:])
			a.Merge(b)
			if merged := a.Round(); !bitEqual(merged, got) {
				t.Errorf("%s: split/merge=%g one-shot=%g on %v", e.Name(), merged, got, xs)
			}
		}
	})
}

// FuzzPartialWire: arbitrary bytes never panic UnmarshalPartial, and a
// valid partial built from the input round-trips to the same exact value
// through the envelope for every wire-capable engine.
func FuzzPartialWire(f *testing.F) {
	for _, name := range []string{"dense", "sparse", "small"} {
		e := engine.MustGet(name)
		acc := e.NewAccumulator()
		acc.AddSlice([]float64{1e100, 1, -1e100, 0x1p-1074})
		if blob, err := engine.MarshalPartial(name, acc); err == nil {
			f.Add(blob)
		}
	}
	// A header naming the retired large engine: it must fail as an
	// unknown engine, never decode.
	f.Add([]byte{0xC7, 1, 5, 'l', 'a', 'r', 'g', 'e'})
	f.Add([]byte{0xC7, 1, 5, 'd', 'e', 'n', 's', 'e'})
	f.Add([]byte{0xC7, 1, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Obligation 1: arbitrary bytes decode or error, never panic, and
		// a successful decode re-marshals to the same exact value.
		if name, acc, err := engine.UnmarshalPartial(data); err == nil {
			want := acc.Round()
			re, err := engine.MarshalPartial(name, acc)
			if err != nil {
				t.Fatalf("decoded partial failed to re-encode: %v", err)
			}
			_, acc2, err := engine.UnmarshalPartial(re)
			if err != nil {
				t.Fatalf("re-encoded partial failed to decode: %v", err)
			}
			if got := acc2.Round(); !bitEqual(got, want) {
				t.Fatalf("re-encode changed value: %g -> %g", want, got)
			}
		}

		// Obligation 2: partials of fuzzer-chosen values round-trip
		// bit-identically for every wire-capable engine.
		xs := fuzzBytesToFloats(data, 64)
		for _, name := range []string{"dense", "sparse", "small"} {
			e := engine.MustGet(name)
			acc := e.NewAccumulator()
			acc.AddSlice(xs)
			want := acc.Round()
			blob, err := engine.MarshalPartial(name, acc)
			if err != nil {
				t.Fatalf("%s: marshal: %v", name, err)
			}
			gotName, dec, err := engine.UnmarshalPartial(blob)
			if err != nil {
				t.Fatalf("%s: unmarshal: %v", name, err)
			}
			if gotName != name {
				t.Fatalf("engine name %q became %q", name, gotName)
			}
			if got := dec.Round(); !bitEqual(got, want) {
				t.Fatalf("%s: wire round-trip %g != %g on %v", name, got, want, xs)
			}
		}
	})
}
