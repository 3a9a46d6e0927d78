package core

import (
	"math"
	"runtime"
	"testing"

	"parsum/internal/gen"
	"parsum/internal/oracle"
)

// sameBits reports whether a and b are the same float64, counting every
// NaN as the same.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// variant is an input and the part of it the oracle must read: all of
// it, or only the tail that holds its specials. A NaN or an infinity
// decides the sum whatever the finite values beside it add up to, and the
// math/big oracle over a million values is slow under -race.
type variant struct{ xs, oracleIn []float64 }

// specialVariants returns xs and copies of it whose last chunk holds a
// NaN, a +Inf, or both infinities, which one worker alone sees.
func specialVariants(xs []float64) map[string]variant {
	n := len(xs)
	put := func(vals ...float64) variant {
		c := append([]float64(nil), xs...)
		copy(c[n-len(vals):], vals)
		return variant{c, c[n-len(vals):]}
	}
	return map[string]variant{
		"finite":   {xs, xs},
		"nan":      put(math.NaN()),
		"+inf":     put(math.Inf(1)),
		"-inf+inf": put(math.Inf(-1), math.Inf(1)),
	}
}

// withProcs runs f at each GOMAXPROCS value, then restores the old one;
// the cleanup restores it when f stops the test midway.
func withProcs(t *testing.T, f func(procs int)) {
	old := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		f(procs)
	}
	runtime.GOMAXPROCS(old)
}

// parallelSizes straddle the grain thresholds of Options.plan and reach
// far above them.
var parallelSizes = []int{grain - 1, 2*grain - 1, 2 * grain, 1 << 20}

// TestSumParallelDefaultMatchesSequential pins that the zero Options —
// parsum.Sum's path — gives the bits of the math/big oracle and of the
// sequential Sum at every GOMAXPROCS, below, at and far above the grain,
// with specials placed where only the last worker's chunk holds them.
func TestSumParallelDefaultMatchesSequential(t *testing.T) {
	base := gen.New(gen.Config{Dist: gen.Random, N: 1 << 20, Delta: 2000, Seed: 61}).Slice()
	for _, n := range parallelSizes {
		for name, v := range specialVariants(base[:n]) {
			xs, want := v.xs, oracle.Sum(v.oracleIn)
			if seq := Sum(xs); !sameBits(seq, want) {
				t.Fatalf("n=%d %s: Sum %x, oracle %x", n, name, math.Float64bits(seq), math.Float64bits(want))
			}
			withProcs(t, func(procs int) {
				if got := SumParallel(xs, Options{}); !sameBits(got, want) {
					t.Errorf("n=%d %s GOMAXPROCS=%d: SumParallel %x, oracle %x",
						n, name, procs, math.Float64bits(got), math.Float64bits(want))
				}
			})
		}
	}
}

// TestSumParallel32DefaultMatchesSequential is the float32 form: the
// parallel tree's single binary32 rounding matches Sum32 and the
// binary32 rounding of the math/big oracle.
func TestSumParallel32DefaultMatchesSequential(t *testing.T) {
	wide := gen.New(gen.Config{Dist: gen.Random, N: 1 << 20, Delta: 60, Seed: 62}).Slice()
	base := make([]float32, len(wide))
	for i, x := range wide {
		base[i] = float32(x)
	}
	for _, n := range parallelSizes {
		for name, v := range specialVariants(widen32(base[:n])) {
			xs := make([]float32, n)
			for i, x := range v.xs {
				xs[i] = float32(x)
			}
			want := oracle32(v.oracleIn)
			if seq := Sum32(xs); !sameBits(float64(seq), float64(want)) {
				t.Fatalf("n=%d %s: Sum32 %x, oracle %x", n, name, math.Float32bits(seq), math.Float32bits(want))
			}
			withProcs(t, func(procs int) {
				if got := SumParallel32(xs, Options{}); !sameBits(float64(got), float64(want)) {
					t.Errorf("n=%d %s GOMAXPROCS=%d: SumParallel32 %x, oracle %x",
						n, name, procs, math.Float32bits(got), math.Float32bits(want))
				}
			})
		}
	}
}

func widen32(xs []float32) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// oracle32 is the binary32 rounding (nearest, ties to even) of the exact
// sum of xs, NaN when the sum is not a real number.
func oracle32(xs []float64) float32 {
	s := oracle.SumBig(xs)
	if s == nil {
		return float32(math.NaN())
	}
	f, _ := s.Float32()
	return f
}

func TestSumParallel32WorkersAndEngines(t *testing.T) {
	xs := make([]float32, 20000)
	for i := range xs {
		xs[i] = float32(i%97) - 48.25
	}
	want := Sum32(xs)
	for _, workers := range []int{1, 2, 3, 8} {
		for _, name := range []string{"", EngineDense, EngineSparse} {
			if got := SumParallel32(xs, Options{Workers: workers, ChunkSize: 1000, Engine: name}); got != want {
				t.Fatalf("workers=%d engine=%q: %g, want %g", workers, name, got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SumParallel32 with the small engine did not panic")
		}
	}()
	SumParallel32(xs, Options{Engine: EngineSmall})
}

// TestPlan pins the worker count: Workers 0 gives each worker at least a
// grain and stays in the caller below two grains, and no setting starts
// more workers than there are chunks.
func TestPlan(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	cases := []struct {
		opt   Options
		n, p  int
		chunk int
	}{
		{Options{}, 0, 0, minAutoChunk},
		{Options{}, 2*grain - 1, 1, minAutoChunk},
		{Options{}, 2 * grain, 2, minAutoChunk},
		{Options{}, 5 * grain, 5, minAutoChunk},
		{Options{}, 1 << 24, 8, maxAutoChunk},
		{Options{}, 1 << 20, 8, 1 << 14},
		{Options{Workers: 64}, 5000, 2, minAutoChunk},
		{Options{Workers: 64}, 1 << 20, 64, minAutoChunk},
		{Options{Workers: 3, ChunkSize: 1}, 2, 2, 1},
		{Options{Workers: 2, ChunkSize: 10}, 10, 1, 10},
	}
	for _, c := range cases {
		if p, chunk := c.opt.plan(c.n); p != c.p || chunk != c.chunk {
			t.Errorf("%+v on %d values: p=%d chunk=%d, want p=%d chunk=%d", c.opt, c.n, p, chunk, c.p, c.chunk)
		}
	}
}
