// Wire-byte corpus: testdata/wire_partials.json pins the exact bytes
// MarshalPartial emits for every wire-capable engine on a fixed set of
// inputs — the golden vectors, negative and cancelling sums, ±Inf and
// NaN with their retractions, narrow-range, single-value and empty
// inputs. Peers, journals and replica votes compare these bytes, so a
// change to any engine's digit store must leave them unchanged.
//
// Regenerate only for an intentional format change, and review the diff:
//
//	go test ./internal/engine -run TestWireCorpus -update-wire
//
// testdata/wire_partials_expanded.json is the same corpus as pinned
// before 'D' and 'N' partials shipped a negative value's top collapsed:
// there a negative value's top is the run (R−1, …, R−1, −1) reaching the
// top of the digit range. Journals, snapshots and peers still hold such
// bytes, so every one of them must decode to the value, and re-encode to
// the bytes, pinned in the current corpus. It is never regenerated.
package engine_test

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"parsum/internal/engine"
	"parsum/internal/gen"
)

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire_partials.json from current behavior")

const (
	wireCorpusPath   = "testdata/wire_partials.json"
	wireExpandedPath = "testdata/wire_partials_expanded.json"
)

type wireCorpus struct {
	Description string     `json:"description"`
	Cases       []wireCase `json:"cases"`
}

// wireCase is one accumulator history: the generated input (if any) and
// Add values are added in bulk, then Sub values are deleted in bulk.
// Partials maps engine name → hex of MarshalPartial.
type wireCase struct {
	Name     string            `json:"name"`
	Gen      *wireGen          `json:"gen,omitempty"`
	Add      []string          `json:"add,omitempty"` // hex IEEE-754 bits
	Sub      []string          `json:"sub,omitempty"`
	Partials map[string]string `json:"partials"`
}

type wireGen struct {
	Dist  string `json:"dist"`
	N     int64  `json:"n"`
	Delta int    `json:"delta"`
	Seed  uint64 `json:"seed"`
}

var wireDists = map[string]gen.Dist{
	"anderson": gen.Anderson,
	"condone":  gen.CondOne,
	"random":   gen.Random,
	"sumzero":  gen.SumZero,
}

func hexBits(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%016x", math.Float64bits(x))
	}
	return out
}

func fromHexBits(t *testing.T, hs []string) []float64 {
	t.Helper()
	xs := make([]float64, len(hs))
	for i, h := range hs {
		b, err := strconv.ParseUint(h, 16, 64)
		if err != nil {
			t.Fatalf("bad value bits %q: %v", h, err)
		}
		xs[i] = math.Float64frombits(b)
	}
	return xs
}

func (c *wireCase) inputs(t *testing.T) (add, sub []float64) {
	t.Helper()
	if c.Gen != nil {
		d, ok := wireDists[c.Gen.Dist]
		if !ok {
			t.Fatalf("case %q: unknown dist %q", c.Name, c.Gen.Dist)
		}
		add = gen.New(gen.Config{Dist: d, N: c.Gen.N, Delta: c.Gen.Delta, Seed: c.Gen.Seed}).Slice()
	}
	return append(add, fromHexBits(t, c.Add)...), fromHexBits(t, c.Sub)
}

func encodeHistory(t *testing.T, name string, add, sub []float64) []byte {
	t.Helper()
	a := engine.MustGet(name).NewAccumulator()
	a.AddSlice(add)
	if len(sub) > 0 {
		a.(engine.Inverter).SubSlice(sub)
	}
	blob, err := engine.MarshalPartial(name, a)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return blob
}

// wireCorpusCases is the input set -update-wire writes: the golden-vector
// inputs plus the shapes whose encodings are easiest to get wrong.
func wireCorpusCases(t *testing.T) []wireCase {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden vectors: %v", err)
	}
	sort.Strings(paths)
	var cases []wireCase
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var gf struct {
			Cases []struct {
				Name   string   `json:"name"`
				Gen    *wireGen `json:"gen"`
				Values []string `json:"values"`
			} `json:"cases"`
		}
		if err := json.Unmarshal(raw, &gf); err != nil {
			t.Fatal(err)
		}
		for _, g := range gf.Cases {
			cases = append(cases, wireCase{Name: "golden/" + g.Name, Gen: g.Gen, Add: g.Values})
		}
	}
	inf, nan := math.Inf(1), math.NaN()
	narrow := gen.New(gen.Config{Dist: gen.Random, N: 256, Delta: 8, Seed: 5}).Slice()
	wide := gen.New(gen.Config{Dist: gen.Random, N: 128, Delta: 2000, Seed: 6}).Slice()
	neg := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = -x
		}
		return out
	}
	for _, c := range []struct {
		name     string
		add, sub []float64
	}{
		{"empty", nil, nil},
		{"single-one", []float64{1}, nil},
		{"single-neg-one", []float64{-1}, nil},
		{"single-min-subnormal", []float64{5e-324}, nil},
		{"single-neg-tiny", []float64{-1e-300}, nil},
		{"single-max", []float64{math.MaxFloat64}, nil},
		{"single-neg-max", []float64{-math.MaxFloat64}, nil},
		{"neg-zero", []float64{math.Copysign(0, -1)}, nil},
		{"twice-max", []float64{math.MaxFloat64, math.MaxFloat64}, nil},
		{"neg-sum-mixed", []float64{-3.5, 1, 1e-200}, nil},
		{"neg-sum-wide", neg(wide), nil},
		{"neg-sum-narrow", neg(narrow), nil},
		{"neg-by-retraction", []float64{1}, []float64{2}},
		{"cancel-pair", []float64{1, -1}, nil},
		{"cancel-classic", []float64{1e100, 1, -1e100, -1}, nil},
		{"cancel-by-retraction", wide, wide},
		{"narrow-range", narrow, nil},
		{"narrow-range-partly-retracted", narrow, narrow[:100]},
		{"pos-inf", []float64{inf, 1}, nil},
		{"neg-inf", []float64{-inf, 1}, nil},
		{"nan", []float64{nan, 2}, nil},
		{"both-infs", []float64{inf, -inf}, nil},
		{"two-pos-infs", []float64{inf, inf}, nil},
		{"two-nans", []float64{nan, nan, 3}, nil},
		{"inf-retracted", []float64{inf, 1}, []float64{inf}},
		{"nan-retracted", []float64{nan, -2}, []float64{nan}},
		{"one-of-two-infs-retracted", []float64{inf, inf}, []float64{inf}},
		{"inf-retracted-never-added", []float64{1}, []float64{-inf}},
		{"nan-retracted-never-added", nil, []float64{nan}},
	} {
		cases = append(cases, wireCase{Name: c.name, Add: hexBits(c.add), Sub: hexBits(c.sub)})
	}
	return cases
}

func TestWireCorpus(t *testing.T) {
	var engines []string
	for _, e := range wireEngines(t) {
		engines = append(engines, e.Name())
	}
	if *updateWire {
		cases := wireCorpusCases(t)
		for i := range cases {
			c := &cases[i]
			add, sub := c.inputs(t)
			c.Partials = map[string]string{}
			for _, name := range engines {
				c.Partials[name] = hex.EncodeToString(encodeHistory(t, name, add, sub))
			}
		}
		out, err := json.MarshalIndent(wireCorpus{
			Description: "engine.MarshalPartial bytes (hex) per wire-capable engine for each accumulator history: add the generated input and the add values, then delete the sub values.",
			Cases:       cases,
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireCorpusPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(cases), wireCorpusPath)
		return
	}
	wc := loadWireCorpus(t, wireCorpusPath)
	pinned := map[string]map[string]string{}
	for _, c := range wc.Cases {
		pinned[c.Name] = c.Partials
		// dense and sparse are one engine under two names: their partials
		// differ only in the envelope's name and the payload's kind byte.
		d, s := payloadOf(c.Partials["dense"], "dense"), payloadOf(c.Partials["sparse"], "sparse")
		if len(d) < 2 || len(d) != len(s) || d[0] != s[0] || d[1] != 'D' || s[1] != 'S' || !bytes.Equal(d[2:], s[2:]) {
			t.Errorf("case %q: dense payload\n  %x\nis not the sparse payload\n  %x\napart from the kind byte", c.Name, d, s)
		}
		add, sub := c.inputs(t)
		for _, name := range engines {
			if _, ok := c.Partials[name]; !ok {
				t.Errorf("case %q: no pinned bytes for wire engine %q (run -update-wire)", c.Name, name)
			}
		}
		for name, wantHex := range c.Partials {
			want, err := hex.DecodeString(wantHex)
			if err != nil {
				t.Fatalf("case %q engine %q: %v", c.Name, name, err)
			}
			if got := encodeHistory(t, name, add, sub); !bytes.Equal(got, want) {
				t.Errorf("case %q engine %q: encodes to\n  %x\nwant pinned\n  %x", c.Name, name, got, want)
			}
			gotName, a, err := engine.UnmarshalPartial(want)
			if err != nil || gotName != name {
				t.Fatalf("case %q engine %q: decoding pinned bytes: engine %q, %v", c.Name, name, gotName, err)
			}
			again, err := engine.MarshalPartial(name, a)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, want) {
				t.Errorf("case %q engine %q: decode then encode gives\n  %x\nwant pinned\n  %x", c.Name, name, again, want)
			}
		}
	}

	for _, c := range loadWireCorpus(t, wireExpandedPath).Cases {
		for name, oldHex := range c.Partials {
			wantHex, ok := pinned[c.Name][name]
			if !ok {
				t.Errorf("expanded case %q engine %q: no current pinned bytes", c.Name, name)
				continue
			}
			old, err := hex.DecodeString(oldHex)
			if err != nil {
				t.Fatalf("expanded case %q engine %q: %v", c.Name, name, err)
			}
			want, _ := hex.DecodeString(wantHex) // checked above
			gotName, a, err := engine.UnmarshalPartial(old)
			if err != nil || gotName != name {
				t.Fatalf("expanded case %q engine %q: decodes as engine %q, %v", c.Name, name, gotName, err)
			}
			_, cur, err := engine.UnmarshalPartial(want)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := a.Round(), cur.Round(); !bitEqual(got, want) {
				t.Errorf("expanded case %q engine %q: rounds to %x, current pinned partial to %x", c.Name, name, math.Float64bits(got), math.Float64bits(want))
			}
			again, err := engine.MarshalPartial(name, a)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, want) {
				t.Errorf("expanded case %q engine %q: re-encodes to\n  %x\nwant pinned\n  %x", c.Name, name, again, want)
			}
		}
	}
}

// payloadOf returns a pinned partial's payload: the bytes after the
// envelope's magic, version, name length and name; nil if there are none.
func payloadOf(hexPartial, name string) []byte {
	b, _ := hex.DecodeString(hexPartial)
	if len(b) < 3+len(name) {
		return nil
	}
	return b[3+len(name):]
}

func loadWireCorpus(t *testing.T, path string) wireCorpus {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var wc wireCorpus
	if err := json.Unmarshal(raw, &wc); err != nil {
		t.Fatal(err)
	}
	if len(wc.Cases) == 0 {
		t.Fatalf("empty wire corpus %s", path)
	}
	return wc
}

// TestWireCanonicalAcrossHistories: the encoding is a function of the
// group element alone. Bulk and scalar adds, a split input merged back
// together, and an add retracted to nothing all encode exactly like the
// direct history.
func TestWireCanonicalAcrossHistories(t *testing.T) {
	inputs := map[string][]float64{
		"narrow":     gen.New(gen.Config{Dist: gen.Random, N: 700, Delta: 8, Seed: 21}).Slice(),
		"wide":       gen.New(gen.Config{Dist: gen.Random, N: 700, Delta: 2000, Seed: 22}).Slice(),
		"sumzero":    gen.New(gen.Config{Dist: gen.SumZero, N: 600, Delta: 900, Seed: 23}).Slice(),
		"negative":   {-1, -1e-300, -2.5e200, 3},
		"specials":   {math.Inf(1), 1, math.NaN(), -4, math.Inf(1)},
		"subnormals": {5e-324, -1e-310, 2.2250738585072014e-308},
	}
	marshal := func(name string, a engine.Accumulator) []byte {
		blob, err := engine.MarshalPartial(name, a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return blob
	}
	for _, e := range wireEngines(t) {
		name := e.Name()
		for in, xs := range inputs {
			bulk := e.NewAccumulator()
			bulk.AddSlice(xs)
			want := marshal(name, bulk)

			scalar := e.NewAccumulator()
			for _, x := range xs {
				scalar.Add(x)
			}
			lo, hi := e.NewAccumulator(), e.NewAccumulator()
			lo.AddSlice(xs[:len(xs)/3])
			hi.AddSlice(xs[len(xs)/3:])
			lo.Merge(hi)
			for hist, a := range map[string]engine.Accumulator{"scalar adds": scalar, "merge": lo} {
				if got := marshal(name, a); !bytes.Equal(got, want) {
					t.Errorf("%s/%s: %s encode to\n  %x\nbulk add encodes to\n  %x", name, in, hist, got, want)
				}
			}

			retracted := e.NewAccumulator()
			retracted.AddSlice(xs)
			retracted.(engine.Inverter).SubSlice(xs)
			if got, empty := marshal(name, retracted), marshal(name, e.NewAccumulator()); !bytes.Equal(got, empty) {
				t.Errorf("%s/%s: add then retract encodes to\n  %x\nempty encodes to\n  %x", name, in, got, empty)
			}
		}
	}
}
