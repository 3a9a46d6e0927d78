package engine_test

import (
	"errors"
	"math"
	"testing"

	_ "parsum/internal/baseline" // register baseline engines
	_ "parsum/internal/core"     // register superaccumulator engines
	"parsum/internal/engine"
	"parsum/internal/oracle"
)

// wireEngines returns every registered engine whose partials can cross a
// process boundary. The three superaccumulator engines must all qualify —
// that set is the acceptance surface of the distributed subsystem.
func wireEngines(t *testing.T) []engine.Engine {
	t.Helper()
	var out []engine.Engine
	for _, e := range engine.All() {
		if engine.CanMarshal(e) {
			out = append(out, e)
		}
	}
	for _, want := range []string{"dense", "sparse", "small"} {
		found := false
		for _, e := range out {
			if e.Name() == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("engine %q cannot marshal wire partials", want)
		}
	}
	return out
}

func TestPartialWireRoundTrip(t *testing.T) {
	for _, e := range wireEngines(t) {
		t.Run(e.Name(), func(t *testing.T) {
			for _, tc := range adversarialCases() {
				acc := e.NewAccumulator()
				acc.AddSlice(tc.xs)
				want := acc.Round()

				blob, err := engine.MarshalPartial(e.Name(), acc)
				if err != nil {
					t.Fatalf("%s: marshal: %v", tc.name, err)
				}
				name, back, err := engine.UnmarshalPartial(blob)
				if err != nil {
					t.Fatalf("%s: unmarshal: %v", tc.name, err)
				}
				if name != e.Name() {
					t.Fatalf("%s: engine name %q round-tripped as %q", tc.name, e.Name(), name)
				}
				if got := back.Round(); !bitEqual(got, want) {
					t.Errorf("%s: wire round-trip=%g want=%g", tc.name, got, want)
				}
				// The decoded partial must merge exactly with local state.
				local := e.NewAccumulator()
				local.AddSlice(tc.xs)
				local.Merge(back)
				direct := e.NewAccumulator()
				direct.AddSlice(tc.xs)
				direct.AddSlice(tc.xs)
				if got, want := local.Round(), direct.Round(); !bitEqual(got, want) {
					t.Errorf("%s: merge of decoded partial=%g want=%g", tc.name, got, want)
				}
			}
		})
	}
}

// TestPartialWireSplitMergeMatchesOracle is the combiner→reducer story at
// the engine layer: partials of disjoint slices marshaled, decoded, and
// merged must reproduce the oracle bit-for-bit.
func TestPartialWireSplitMergeMatchesOracle(t *testing.T) {
	xs := make([]float64, 0, 4096)
	for i := 0; i < 1024; i++ {
		x := math.Ldexp(float64(i%257)-128, (i*37)%600-300)
		xs = append(xs, x, -x/3, x*1e-30, 1.0/float64(i+1))
	}
	for _, e := range wireEngines(t) {
		if !e.Caps().CorrectlyRounded {
			continue
		}
		root := e.NewAccumulator()
		for lo := 0; lo < len(xs); lo += 300 {
			hi := lo + 300
			if hi > len(xs) {
				hi = len(xs)
			}
			part := e.NewAccumulator()
			part.AddSlice(xs[lo:hi])
			blob, err := engine.MarshalPartial(e.Name(), part)
			if err != nil {
				t.Fatal(err)
			}
			_, dec, err := engine.UnmarshalPartial(blob)
			if err != nil {
				t.Fatal(err)
			}
			root.Merge(dec)
		}
		if got, want := root.Round(), oracle.Sum(xs); !bitEqual(got, want) {
			t.Errorf("%s: distributed merge=%g oracle=%g", e.Name(), got, want)
		}
	}
}

// TestNegativePartialsAreSigmaSized: a negative value's partial holds as
// few components as its positive twin's, give or take one, in every wire
// engine. Before, 'D' and 'N' expanded a negative top into a run reaching
// the top of the digit range: −1 took 226 B, −1e−300 424 B.
func TestNegativePartialsAreSigmaSized(t *testing.T) {
	size := func(name string, x float64) int {
		a := engine.MustGet(name).NewAccumulator()
		a.Add(x)
		blob, err := engine.MarshalPartial(name, a)
		if err != nil {
			t.Fatal(err)
		}
		return len(blob)
	}
	for _, e := range wireEngines(t) {
		for _, x := range []float64{1, 3.5, 1e-300, 1e300, math.MaxFloat64, 5e-324} {
			// One more component costs at most 6 B at W = 32: a 1-byte
			// index and a 5-byte digit.
			if pos, neg := size(e.Name(), x), size(e.Name(), -x); neg > pos+6 {
				t.Errorf("%s: %g takes %d B, %g %d B", e.Name(), -x, neg, x, pos)
			}
		}
	}
	for _, c := range []struct {
		name string
		x    float64
		want int
	}{{"dense", -1, 16}, {"sparse", -1, 17}, {"small", -1, 16}, {"dense", -1e-300, 28}} {
		if got := size(c.name, c.x); got != c.want {
			t.Errorf("%s: %g takes %d B, want %d", c.name, c.x, got, c.want)
		}
	}
}

func TestPartialWireRejectsBadEnvelopes(t *testing.T) {
	e := engine.MustGet("dense")
	acc := e.NewAccumulator()
	acc.Add(1.25)
	blob, err := engine.MarshalPartial("dense", acc)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"nil", nil},
		{"short", []byte{0xC7, 1}},
		{"bad-magic", append([]byte{0x00}, blob[1:]...)},
		{"bad-version", append([]byte{0xC7, 9}, blob[2:]...)},
		{"zero-name-len", []byte{0xC7, 1, 0}},
		{"name-truncated", []byte{0xC7, 1, 10, 'd', 'e'}},
		{"unknown-engine", []byte{0xC7, 1, 7, 'n', 'o', '-', 's', 'u', 'c', 'h'}},
		{"non-streaming-engine", []byte{0xC7, 1, 8, 'i', 'f', 'a', 's', 't', 's', 'u', 'm'}},
		{"payload-garbage", append(append([]byte{}, blob[:8]...), 0xDE, 0xAD)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := engine.UnmarshalPartial(tc.data); err == nil {
				t.Fatalf("accepted % x", tc.data)
			}
		})
	}

	// Truncations at every prefix length error, never panic.
	for i := 0; i < len(blob); i++ {
		if _, _, err := engine.UnmarshalPartial(blob[:i]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", i)
		}
	}
}

func TestPartialWireRejectsCrossEngineWidthConfusion(t *testing.T) {
	// A width-16 dense blob re-tagged as a "dense" partial must be rejected:
	// the dense engine runs at the default width and a mismatched partial
	// could never merge with local accumulators.
	// (Constructed by marshaling at the accum layer via a width-16 window
	// is not reachable here; instead corrupt the width byte of a valid
	// payload and expect the inner codec or the engine check to reject.)
	e := engine.MustGet("dense")
	acc := e.NewAccumulator()
	acc.Add(3.5)
	blob, err := engine.MarshalPartial("dense", acc)
	if err != nil {
		t.Fatal(err)
	}
	// Envelope: 3 bytes + "dense"; inner header width byte is at offset
	// 3+5+3.
	bad := append([]byte(nil), blob...)
	bad[3+5+3] = 16
	if _, _, err := engine.UnmarshalPartial(bad); err == nil {
		t.Fatal("width-confused dense partial accepted")
	}
}

func TestMarshalPartialErrors(t *testing.T) {
	e := engine.MustGet("dense")
	acc := e.NewAccumulator()
	if _, err := engine.MarshalPartial("", acc); !errors.Is(err, engine.ErrWireInvalid) {
		t.Errorf("empty name: err=%v", err)
	}
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'a'
	}
	if _, err := engine.MarshalPartial(string(long), acc); !errors.Is(err, engine.ErrWireInvalid) {
		t.Errorf("oversized name: err=%v", err)
	}
}
