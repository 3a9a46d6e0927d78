package keyed

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// wideValues returns n seeded values spread over a wide exponent range,
// so a bulk add touches most of an accumulator's digits.
func wideValues(n int) []float64 {
	rng := rand.New(rand.NewSource(20))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Ldexp(rng.Float64()*2-1, rng.Intn(2000)-1000)
	}
	return xs
}

// TestResidentBytesPerKey counts what each live key costs: 4096 new keys,
// each given one 1024-value add, may grow the live heap by at most 1 KiB
// per key. A dense entry is its 70 digits (560 B) plus the accumulator
// header and the map slot; a bulk add's lane cache lives on the call's
// stack and must not stay behind in the entry.
func TestResidentBytesPerKey(t *testing.T) {
	const keys, budget = 4096, 1024
	xs := wideValues(1024)
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("key-%04d", i)
	}
	s := mustNew(t, "dense", 4)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, k := range names {
		s.Add(k, xs)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / keys
	t.Logf("%d B of live heap per key", per)
	if per > budget {
		t.Fatalf("each key holds %d B of live heap, want at most %d", per, budget)
	}
}

// TestAddExistingKeyZeroAlloc: a bulk add to a key that already exists
// allocates nothing, on every wire-capable engine.
func TestAddExistingKeyZeroAlloc(t *testing.T) {
	xs := wideValues(1024)
	for _, eng := range testEngines {
		s := mustNew(t, eng, 4)
		s.Add("k", xs)
		if avg := testing.AllocsPerRun(50, func() { s.Add("k", xs) }); avg != 0 {
			t.Errorf("%s: Store.Add on an existing key allocates %.1f times per call, want 0", eng, avg)
		}
	}
}
