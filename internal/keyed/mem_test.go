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

// narrowValues returns n seeded N(0, 100²) values: a narrow exponent
// range, so an accumulator that stores only its active digits stays small.
func narrowValues(n int) []float64 {
	rng := rand.New(rand.NewSource(21))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 100
	}
	return xs
}

// TestResidentBytesPerKey counts what each live dense key costs: 4096 new
// keys, each given one 1024-value add. A dense entry stores only the
// digits its values reach, plus the accumulator header and the map slot,
// and a bulk add's lane cache lives on the call's stack and must not stay
// behind in the entry. Wide values (δ = 2000) reach most of the 70-digit
// range and may cost 1 KiB per key; N(0, 100²) values reach a handful of
// digits and may cost 320 B.
func TestResidentBytesPerKey(t *testing.T) {
	const keys = 4096
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("key-%04d", i)
	}
	for _, tc := range []struct {
		name   string
		xs     []float64
		budget int64
	}{
		{"wide", wideValues(1024), 1024},
		{"narrow", narrowValues(1024), 320},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mustNew(t, "dense", 4)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for _, k := range names {
				s.Add(k, tc.xs)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(s)
			per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / keys
			t.Logf("%d B of live heap per key", per)
			if per > tc.budget {
				t.Fatalf("each key holds %d B of live heap, want at most %d", per, tc.budget)
			}
		})
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

// TestGroupedFlushZeroAlloc: a keyed flush of several batches to
// existing keys groups them by partition in place, so neither adding nor
// deleting the group allocates, whatever its size.
func TestGroupedFlushZeroAlloc(t *testing.T) {
	xs := wideValues(64)
	s := mustNew(t, "dense", 2)
	for _, n := range []int{2, 8, 32} {
		group := make([]Batch, n)
		for i := range group {
			group[i] = Batch{Key: fmt.Sprintf("k%d", i%11), Values: xs}
		}
		s.AddKeyedBatches(group) // create the keys
		for name, apply := range map[string]func([]Batch){"add": s.AddKeyedBatches, "sub": s.SubKeyedBatches} {
			if avg := testing.AllocsPerRun(50, func() { apply(group) }); avg != 0 {
				t.Errorf("%s of a group of %d batches allocates %.1f times per call, want 0", name, n, avg)
			}
		}
	}
}
