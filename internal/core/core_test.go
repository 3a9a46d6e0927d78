package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"parsum/internal/condition"
	"parsum/internal/gen"
	"parsum/internal/oracle"
)

func genData(d gen.Dist, n int64, delta int, seed uint64) []float64 {
	return gen.New(gen.Config{Dist: d, N: n, Delta: delta, Seed: seed}).Slice()
}

func TestSumMatchesOracleOnDistributions(t *testing.T) {
	for _, d := range gen.AllDists {
		for _, delta := range []int{10, 500, 2000} {
			xs := genData(d, 4000, delta, 31)
			want := oracle.Sum(xs)
			if got := Sum(xs); got != want {
				t.Fatalf("%v δ=%d: Sum=%g oracle=%g", d, delta, got, want)
			}
			if got := SumEngine(EngineSparse, xs); got != want {
				t.Fatalf("%v δ=%d: sparse engine Sum=%g oracle=%g", d, delta, got, want)
			}
		}
	}
}

func TestSumParallelDeterministicAcrossWorkers(t *testing.T) {
	xs := genData(gen.Random, 200000, 1500, 17)
	want := Sum(xs)
	for _, workers := range []int{1, 2, 3, 4, 7, 16} {
		for _, name := range []string{EngineDense, EngineSparse} {
			opt := Options{Workers: workers, ChunkSize: 1024, Engine: name}
			if got := SumParallel(xs, opt); got != want {
				t.Fatalf("workers=%d engine=%s: %g != %g", workers, name, got, want)
			}
		}
	}
}

func TestSumParallelMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		n := 1 + r.Intn(5000)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Ldexp(r.Float64()*2-1, r.Intn(1600)-800)
		}
		want := oracle.Sum(xs)
		opt := Options{Workers: 1 + r.Intn(8), ChunkSize: 64 + r.Intn(512), Engine: [...]string{EngineSparse, EngineDense}[r.Intn(2)]}
		if got := SumParallel(xs, opt); got != want {
			t.Fatalf("trial %d: parallel=%g oracle=%g", trial, got, want)
		}
	}
}

func TestSumEmptyAndTiny(t *testing.T) {
	if Sum(nil) != 0 || SumEngine(EngineSparse, nil) != 0 || SumParallel(nil, Options{}) != 0 {
		t.Fatal("empty sum must be +0")
	}
	if Sum([]float64{3.5}) != 3.5 {
		t.Fatal("singleton")
	}
	v, st := SumAdaptive(nil, Options{})
	if v != 0 || !st.Certified {
		t.Fatal("adaptive empty")
	}
}

func TestSumAdaptiveFaithfulOnDistributions(t *testing.T) {
	for _, d := range gen.AllDists {
		for _, delta := range []int{10, 500, 2000} {
			xs := genData(d, 4000, delta, 33)
			got, st := SumAdaptive(xs, Options{ChunkSize: 128})
			if !st.Certified {
				t.Fatalf("%v δ=%d: not certified", d, delta)
			}
			if !oracle.Faithful(xs, got) {
				t.Fatalf("%v δ=%d: adaptive result %g not faithful (oracle %g)",
					d, delta, got, oracle.Sum(xs))
			}
		}
	}
}

func TestSumAdaptiveWellConditionedStopsEarly(t *testing.T) {
	xs := genData(gen.CondOne, 50000, 40, 3)
	got, st := SumAdaptive(xs, Options{})
	if got != oracle.Sum(xs) {
		t.Fatalf("adaptive=%g oracle=%g", got, oracle.Sum(xs))
	}
	if st.Rounds > 2 {
		t.Fatalf("well-conditioned data took %d rounds (r=%d)", st.Rounds, st.FinalR)
	}
}

func TestSumAdaptiveWorkGrowsWithConditionNumber(t *testing.T) {
	// Parametric cancellation: two large opposite blocks plus a small
	// residual; shifting the block exponent raises C(X).
	mk := func(blockExp int) []float64 {
		n := 4000
		xs := make([]float64, 0, 2*n+1)
		r := rand.New(rand.NewSource(7))
		for i := 0; i < n; i++ {
			v := math.Ldexp(1+r.Float64(), blockExp)
			xs = append(xs, v, -v)
		}
		xs = append(xs, 1)
		r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		return xs
	}
	easy := mk(5)   // C ≈ 2^7·n
	hard := mk(500) // C ≈ 2^502·n
	ge, se := SumAdaptive(easy, Options{ChunkSize: 64})
	gh, sh := SumAdaptive(hard, Options{ChunkSize: 64})
	if ge != 1 || gh != 1 {
		t.Fatalf("cancellation sums: easy=%g hard=%g, want 1", ge, gh)
	}
	le := condition.Log2(easy)
	lh := condition.Log2(hard)
	if !(lh > le+300) {
		t.Fatalf("setup broken: logC easy=%g hard=%g", le, lh)
	}
	if sh.Rounds < se.Rounds {
		t.Fatalf("rounds: easy=%d hard=%d — should not decrease with C(X)", se.Rounds, sh.Rounds)
	}
}

func TestSumAdaptiveQuickFaithful(t *testing.T) {
	f := func(raw []uint64) bool {
		xs := make([]float64, 0, len(raw))
		for _, b := range raw {
			x := math.Float64frombits(b)
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, x)
		}
		got, st := SumAdaptive(xs, Options{ChunkSize: 8})
		return st.Certified && oracle.Faithful(xs, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAutoChunkBounds(t *testing.T) {
	if got := AutoChunk(100, 4); got != minAutoChunk {
		t.Fatalf("tiny input: chunk %d, want floor %d", got, minAutoChunk)
	}
	if got := AutoChunk(1<<30, 2); got != maxAutoChunk {
		t.Fatalf("huge input: chunk %d, want ceiling %d", got, maxAutoChunk)
	}
	if got, want := AutoChunk(1<<21, 4), (1<<21)/(4*chunksPerWorker); got != want || got == minAutoChunk || got == maxAutoChunk {
		t.Fatalf("mid input: chunk %d, want unclamped %d", got, want)
	}
	if got := AutoChunk(1<<20, 0); got < minAutoChunk || got > maxAutoChunk {
		t.Fatalf("zero workers: chunk %d out of bounds", got)
	}
}

// TestSumParallelPoolReuse exercises the sync.Pool hot path across many
// calls with different data, widths, and worker counts: stale digits or
// special flags leaking between pooled accumulators would corrupt results.
func TestSumParallelPoolReuse(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(20000)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Ldexp(r.Float64()*2-1, r.Intn(1600)-800)
		}
		opt := Options{
			Workers:   1 + r.Intn(8),
			ChunkSize: 1 + r.Intn(2048),
			Width:     uint(8 + 8*r.Intn(4)),
		}
		want := oracle.Sum(xs)
		if got := SumParallel(xs, opt); got != want {
			t.Fatalf("trial %d (w=%d): %g != oracle %g", trial, opt.Width, got, want)
		}
	}
	// A NaN-poisoned run must not leak its special flags into the pool.
	if got := SumParallel([]float64{1, math.NaN(), 2}, Options{Workers: 2, ChunkSize: 1}); !math.IsNaN(got) {
		t.Fatalf("NaN input: got %g", got)
	}
	if got := SumParallel([]float64{1, 2, 3}, Options{Workers: 2, ChunkSize: 1}); got != 6 {
		t.Fatalf("after NaN run: got %g, want 6", got)
	}
	if got := Sum([]float64{4, 5}); got != 9 {
		t.Fatalf("sequential after NaN run: got %g, want 9", got)
	}
}

func TestSumEngineDispatch(t *testing.T) {
	xs := genData(gen.Random, 3000, 800, 51)
	want := oracle.Sum(xs)
	for _, name := range []string{"", EngineDense, EngineSparse, EngineSmall} {
		if got := SumEngine(name, xs); got != want {
			t.Fatalf("SumEngine(%q)=%g oracle=%g", name, got, want)
		}
	}
	// small has no specialized parallel path: it runs the generic one.
	if got := SumParallel(xs, Options{Engine: EngineSmall, Workers: 4, ChunkSize: 256}); got != want {
		t.Fatalf("SumParallel(small)=%g oracle=%g", got, want)
	}
}

func TestSumHandlesSpecials(t *testing.T) {
	if got := Sum([]float64{1, math.Inf(1)}); !math.IsInf(got, 1) {
		t.Fatalf("got %g", got)
	}
	if got := SumParallel([]float64{math.Inf(1), math.Inf(-1)}, Options{Workers: 2, ChunkSize: 1}); !math.IsNaN(got) {
		t.Fatalf("got %g, want NaN", got)
	}
}
