// Conformance suite for the engine registry: every capability flag an
// engine declares is a contract, checked here against the math/big oracle
// on adversarial inputs — huge cancellation, denormals, near-overflow
// magnitudes, ±Inf/NaN — and, for parallel-deterministic engines, for
// bit-identical results across worker counts and chunk sizes.
package engine_test

import (
	"fmt"
	"math"
	"testing"

	_ "parsum/internal/baseline" // register baseline engines
	"parsum/internal/core"       // registers core engines
	"parsum/internal/engine"
	"parsum/internal/gen"
	"parsum/internal/oracle"
)

type testCase struct {
	name string
	xs   []float64
}

// adversarialCases are inputs chosen to break inexact or carelessly merged
// summation: massive cancellation across the full exponent range,
// denormal-only sums, intermediate overflow, and IEEE specials.
func adversarialCases() []testCase {
	var cases []testCase

	// Full-exponent-range cancellation with a denormal residual: powers of
	// two from 2^-1074 to 2^1023 and their negations in a different order.
	var full []float64
	for e := -1074; e <= 1023; e += 11 {
		full = append(full, math.Ldexp(1, e))
	}
	for e := 1023; e >= -1074; e -= 11 {
		full = append(full, -math.Ldexp(1, e))
	}
	full = append(full, math.SmallestNonzeroFloat64)
	cases = append(cases, testCase{"full-range-cancellation", full})

	// Huge cancelling blocks whose naive partial sums overflow.
	var huge []float64
	for i := 0; i < 64; i++ {
		huge = append(huge, math.MaxFloat64, math.MaxFloat64)
	}
	for i := 0; i < 64; i++ {
		huge = append(huge, -math.MaxFloat64, -math.MaxFloat64)
	}
	huge = append(huge, 1.5)
	cases = append(cases, testCase{"overflowing-cancellation", huge})

	// Denormal accumulation crossing into the normal range and back.
	var den []float64
	for i := 0; i < 5000; i++ {
		den = append(den, math.SmallestNonzeroFloat64)
	}
	for i := 0; i < 2499; i++ {
		den = append(den, -2*math.SmallestNonzeroFloat64)
	}
	cases = append(cases, testCase{"denormals", den})

	// The classic motivating example plus half-ulp rounding traps.
	cases = append(cases,
		testCase{"classic", []float64{1e100, 1, -1e100}},
		testCase{"half-ulp", []float64{1, math.Ldexp(1, -53), math.Ldexp(1, -105), -math.Ldexp(1, -105), math.Ldexp(1, -105)}},
		testCase{"empty", nil},
		testCase{"signed-zeros", []float64{0, math.Copysign(0, -1)}},
		testCase{"singleton-denormal", []float64{math.SmallestNonzeroFloat64}},
		testCase{"pos-inf", []float64{1, math.Inf(1), 2}},
		testCase{"neg-inf", []float64{math.Inf(-1), -1}},
		testCase{"both-inf", []float64{math.Inf(1), math.Inf(-1)}},
		testCase{"nan", []float64{1, math.NaN(), 2}},
		testCase{"nan-and-inf", []float64{math.NaN(), math.Inf(1)}},
	)

	// The paper's four generated distributions at a wide exponent range.
	for _, d := range gen.AllDists {
		xs := gen.New(gen.Config{Dist: d, N: 3000, Delta: 2000, Seed: 41}).Slice()
		cases = append(cases, testCase{fmt.Sprintf("gen-%s", d), xs})
	}
	return cases
}

// bitEqual compares float64 results bit-for-bit, except that any NaN
// matches any NaN.
func bitEqual(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestRegistryPopulated pins the acceptance surface: the engines the
// library ships are registered under their stable names.
func TestRegistryPopulated(t *testing.T) {
	want := []string{"adaptive", "demmel-hida", "dense", "ifastsum", "kahan",
		"naive", "neumaier", "pairwise", "small", "sparse", "truncated"}
	for _, name := range want {
		if _, ok := engine.Get(name); !ok {
			t.Errorf("engine %q not registered", name)
		}
	}
	if n := len(engine.Names()); n < 5 {
		t.Fatalf("registry has %d engines, want >= 5 (%v)", n, engine.Names())
	}
}

// TestExactEnginesMatchOracle: every engine claiming correct rounding must
// be bit-identical to the oracle on every adversarial input; every engine
// claiming faithfulness must pass the oracle's faithfulness check.
func TestExactEnginesMatchOracle(t *testing.T) {
	for _, e := range engine.All() {
		caps := e.Caps()
		if !caps.Faithful {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			for _, tc := range adversarialCases() {
				got := e.Sum(tc.xs)
				if caps.CorrectlyRounded {
					if want := oracle.Sum(tc.xs); !bitEqual(got, want) {
						t.Errorf("%s: Sum=%g (bits %x) oracle=%g (bits %x)",
							tc.name, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				} else if !oracle.Faithful(tc.xs, got) {
					t.Errorf("%s: Sum=%g is not a faithful rounding (oracle %g)",
						tc.name, got, oracle.Sum(tc.xs))
				}
			}
		})
	}
}

// TestStreamingEnginesSplitMerge: for every streaming engine, splitting the
// input across accumulators and merging in a skewed order must reproduce
// the one-shot sum bit-for-bit, and Clone/Reset must behave.
func TestStreamingEnginesSplitMerge(t *testing.T) {
	for _, e := range engine.All() {
		if !e.Caps().Streaming {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			for _, tc := range adversarialCases() {
				want := e.Sum(tc.xs)

				// Split into 5 uneven parts, merge right-to-left.
				parts := make([]engine.Accumulator, 5)
				for i := range parts {
					parts[i] = e.NewAccumulator()
				}
				for i, x := range tc.xs {
					parts[(i*i)%5].Add(x)
				}
				for i := len(parts) - 1; i > 0; i-- {
					parts[i-1].Merge(parts[i])
				}
				if got := parts[0].Round(); !bitEqual(got, want) {
					t.Errorf("%s: split/merge=%g one-shot=%g", tc.name, got, want)
				}
				// Round must be non-destructive.
				if got := parts[0].Round(); !bitEqual(got, want) {
					t.Errorf("%s: second Round diverged", tc.name)
				}

				// Clone must be independent of its origin.
				c := parts[0].Clone()
				parts[0].Add(1)
				if got := c.Round(); !bitEqual(got, want) {
					t.Errorf("%s: clone changed when origin mutated: %g != %g", tc.name, got, want)
				}
				// Reset must produce an empty accumulator.
				c.Reset()
				if got := c.Round(); got != 0 {
					t.Errorf("%s: Reset then Round = %g, want 0", tc.name, got)
				}
			}
		})
	}
}

// TestAccumulatorAddSliceMatchesAdd pins AddSlice to element-wise Add,
// and every streaming accumulator to a native float32 path.
func TestAccumulatorAddSliceMatchesAdd(t *testing.T) {
	xs := gen.New(gen.Config{Dist: gen.SumZero, N: 2000, Delta: 900, Seed: 5}).Slice()
	for _, e := range engine.All() {
		if !e.Caps().Streaming {
			continue
		}
		a, b := e.NewAccumulator(), e.NewAccumulator()
		if _, ok := a.(engine.Adder32); !ok {
			t.Errorf("%s: streaming accumulator lacks engine.Adder32", e.Name())
		}
		a.AddSlice(xs)
		for _, x := range xs {
			b.Add(x)
		}
		if av, bv := a.Round(), b.Round(); !bitEqual(av, bv) {
			t.Errorf("%s: AddSlice=%g Add loop=%g", e.Name(), av, bv)
		}
	}
}

// TestParallelDeterministicAcrossWorkersAndChunks is the post-rewrite
// guarantee: for every parallel-deterministic engine, SumParallel is
// bit-identical to the sequential sum for every worker count and chunk
// size (including the auto-tuned chunk 0), on both well-behaved and
// fully cancelling data.
func TestParallelDeterministicAcrossWorkersAndChunks(t *testing.T) {
	datasets := map[string][]float64{
		"random":  gen.New(gen.Config{Dist: gen.Random, N: 60000, Delta: 1500, Seed: 9}).Slice(),
		"sumzero": gen.New(gen.Config{Dist: gen.SumZero, N: 60000, Delta: 1500, Seed: 10}).Slice(),
	}
	for _, e := range engine.All() {
		caps := e.Caps()
		if !caps.DeterministicParallel || !caps.Streaming {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			for dn, xs := range datasets {
				want := e.Sum(xs)
				if caps.CorrectlyRounded {
					if w := oracle.Sum(xs); !bitEqual(want, w) {
						t.Fatalf("%s: sequential %g != oracle %g", dn, want, w)
					}
				}
				for _, workers := range []int{1, 2, 3, 4, 8, 16} {
					for _, chunk := range []int{0, 1, 17, 1024, 1 << 16} {
						opt := core.Options{Engine: e.Name(), Workers: workers, ChunkSize: chunk}
						if got := core.SumParallel(xs, opt); !bitEqual(got, want) {
							t.Fatalf("%s workers=%d chunk=%d: %g != %g",
								dn, workers, chunk, got, want)
						}
					}
				}
			}
		})
	}
}

// TestNonStreamingEnginesFallBackSequentially: requesting parallelism from
// an engine without deterministic streaming merges must still return that
// engine's sequential result.
func TestNonStreamingEnginesFallBackSequentially(t *testing.T) {
	xs := gen.New(gen.Config{Dist: gen.Random, N: 5000, Delta: 100, Seed: 12}).Slice()
	for _, e := range engine.All() {
		caps := e.Caps()
		if caps.DeterministicParallel && caps.Streaming {
			continue
		}
		want := e.Sum(xs)
		got := core.SumParallel(xs, core.Options{Engine: e.Name(), Workers: 8, ChunkSize: 64})
		if !bitEqual(got, want) {
			t.Errorf("%s: parallel fallback %g != sequential %g", e.Name(), got, want)
		}
	}
}

// TestSumParallelUnknownEnginePanics pins the failure mode for a typo'd
// Options.Engine.
func TestSumParallelUnknownEnginePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SumParallel with unknown engine did not panic")
		}
	}()
	core.SumParallel([]float64{1, 2}, core.Options{Engine: "no-such-engine"})
}
