package keyed

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"parsum/internal/engine"
	"parsum/internal/oracle"
)

// engines every keyed test sweeps: the three wire-capable superaccumulator
// engines.
var testEngines = []string{"dense", "sparse", "small"}

// partitionCounts exercises the degenerate single-partition store, a
// power of two, and an odd count that makes the modulo non-trivial.
var partitionCounts = []int{1, 4, 7}

func mustNew(t testing.TB, eng string, parts int) *Store {
	t.Helper()
	s, err := New(Options{Engine: eng, Partitions: parts})
	if err != nil {
		t.Fatalf("New(%q, %d): %v", eng, parts, err)
	}
	return s
}

// testValues returns a per-key multiset over nKeys keys with wide
// exponent spread, denormals, and exact cancellations.
func testValues(r *rand.Rand, nKeys, perKey int) map[string][]float64 {
	m := make(map[string][]float64, nKeys)
	for k := 0; k < nKeys; k++ {
		key := fmt.Sprintf("key-%03d", k)
		xs := make([]float64, 0, perKey)
		for i := 0; i < perKey; i++ {
			x := math.Ldexp(r.Float64()*2-1, r.Intn(600)-300)
			xs = append(xs, x, -x/2) // forced partial cancellation
		}
		xs = append(xs, 5e-324, -5e-324, 0, math.Copysign(0, -1))
		m[key] = xs
	}
	return m
}

func TestAddSumPerKeyBitIdentical(t *testing.T) {
	for _, eng := range testEngines {
		for _, parts := range partitionCounts {
			t.Run(fmt.Sprintf("%s/p%d", eng, parts), func(t *testing.T) {
				s := mustNew(t, eng, parts)
				data := testValues(rand.New(rand.NewSource(1)), 20, 40)
				// Interleave ingestion across keys in small pieces.
				for off := 0; ; off += 7 {
					done := true
					for key, xs := range data {
						if off < len(xs) {
							end := min(off+7, len(xs))
							s.Add(key, xs[off:end])
							done = false
						}
					}
					if done {
						break
					}
				}
				for key, xs := range data {
					got, ok := s.Sum(key)
					if !ok {
						t.Fatalf("key %q missing", key)
					}
					want := oracle.Sum(xs)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("Sum(%q) = %x, oracle %x", key, math.Float64bits(got), math.Float64bits(want))
					}
				}
				if n := s.Len(); n != len(data) {
					t.Errorf("Len = %d, want %d", n, len(data))
				}
			})
		}
	}
}

func TestMissingAndEmptyKeys(t *testing.T) {
	s := mustNew(t, "dense", 4)
	if v, ok := s.Sum("nope"); ok || v != 0 {
		t.Errorf("Sum of missing key = (%v, %v), want (0, false)", v, ok)
	}
	// An empty Add registers the key at exact +0: presence is state.
	s.Add("present", nil)
	v, ok := s.Sum("present")
	if !ok {
		t.Fatal("empty Add did not register the key")
	}
	if math.Float64bits(v) != 0 {
		t.Errorf("empty key sum bits = %x, want +0", math.Float64bits(v))
	}
}

func TestSubIsExactDeletion(t *testing.T) {
	s := mustNew(t, "dense", 3)
	xs := []float64{1e300, -1e300, 3.5, 5e-324, math.Inf(1)}
	noise := []float64{2.25, -1e-30, math.Inf(1), math.NaN()}
	s.Add("k", xs)
	s.Add("k", noise)
	s.Sub("k", noise)
	got, _ := s.Sum("k")
	want := oracle.Sum(xs)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("after add+sub of noise: %x, want %x", math.Float64bits(got), math.Float64bits(want))
	}
	// A net deletion on a fresh key is a legal group element: adding the
	// values back cancels to +0.
	s.Sub("fresh", []float64{7.5})
	s.Add("fresh", []float64{7.5})
	if v, ok := s.Sum("fresh"); !ok || math.Float64bits(v) != 0 {
		t.Errorf("net-deleted-then-restored key = (%v,%v), want +0", v, ok)
	}
}

func TestSnapshotDeterministicAcrossPartitionsAndOrder(t *testing.T) {
	data := testValues(rand.New(rand.NewSource(2)), 30, 20)
	var ref []KeySum
	for i, parts := range []int{1, 4, 7} {
		s := mustNew(t, "dense", parts)
		// Different ingestion order per store: forward, backward, shuffled
		// split points — same per-key multiset.
		keys := make([]string, 0, len(data))
		for k := range data {
			keys = append(keys, k)
		}
		r := rand.New(rand.NewSource(int64(i + 10)))
		r.Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
		for _, k := range keys {
			xs := data[k]
			cut := r.Intn(len(xs) + 1)
			s.Add(k, xs[cut:])
			s.Add(k, xs[:cut])
		}
		snap := s.Snapshot()
		if ref == nil {
			ref = snap
			continue
		}
		if len(snap) != len(ref) {
			t.Fatalf("partitions=%d: snapshot has %d keys, want %d", parts, len(snap), len(ref))
		}
		for j := range snap {
			if snap[j].Key != ref[j].Key || math.Float64bits(snap[j].Sum) != math.Float64bits(ref[j].Sum) {
				t.Errorf("partitions=%d: snapshot[%d] = %+v, want %+v", parts, j, snap[j], ref[j])
			}
		}
	}
}

func TestKeysRangeAndDeleteRange(t *testing.T) {
	s := mustNew(t, "dense", 4)
	for _, k := range []string{"b", "a", "d", "c", "e"} {
		s.Add(k, []float64{1})
	}
	if got := s.Keys(); len(got) != 5 || got[0] != "a" || got[4] != "e" {
		t.Fatalf("Keys() = %v, want sorted a..e", got)
	}
	if got := s.KeysRange("b", "d"); len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Errorf("KeysRange(b,d) = %v, want [b c]", got)
	}
	if got := s.KeysRange("d", ""); len(got) != 2 || got[0] != "d" || got[1] != "e" {
		t.Errorf(`KeysRange(d,"") = %v, want [d e]`, got)
	}
	if n := s.DeleteRange("b", "d"); n != 2 {
		t.Errorf("DeleteRange removed %d, want 2", n)
	}
	if got := s.Keys(); len(got) != 3 {
		t.Errorf("after DeleteRange: Keys() = %v", got)
	}
	if _, ok := s.Sum("b"); ok {
		t.Error("deleted key still present")
	}
	// Deleted keys' accumulators are recycled; re-adding must start from
	// a clean pool value.
	s.Add("b", []float64{2})
	if v, _ := s.Sum("b"); v != 2 {
		t.Errorf("recycled accumulator dirty: Sum(b) = %v, want 2", v)
	}
	s.Reset()
	if n := s.Len(); n != 0 {
		t.Errorf("after Reset: Len = %d", n)
	}
}

func TestGroupedBatchesMatchIndividualOps(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var adds, subs []Batch
	individual := mustNew(t, "dense", 5)
	grouped := mustNew(t, "dense", 5)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%02d", r.Intn(25))
		xs := make([]float64, 1+r.Intn(8))
		for j := range xs {
			xs[j] = math.Ldexp(r.Float64()*2-1, r.Intn(200)-100)
		}
		if r.Intn(4) == 0 {
			subs = append(subs, Batch{Key: key, Values: xs})
			individual.Sub(key, xs)
		} else {
			adds = append(adds, Batch{Key: key, Values: xs})
			individual.Add(key, xs)
		}
	}
	// The last add and the first sub arrive as groups of one, which
	// skip the bucketing.
	grouped.AddKeyedBatches(adds[:len(adds)-1])
	grouped.AddKeyedBatches(adds[len(adds)-1:])
	grouped.SubKeyedBatches(subs[:1])
	grouped.SubKeyedBatches(subs[1:])
	grouped.AddKeyedBatches(nil) // no-op

	a, b := individual.Snapshot(), grouped.Snapshot()
	if len(a) != len(b) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key || math.Float64bits(a[i].Sum) != math.Float64bits(b[i].Sum) {
			t.Errorf("entry %d: individual %+v, grouped %+v", i, a[i], b[i])
		}
	}
}

func TestMergeStores(t *testing.T) {
	a := mustNew(t, "dense", 3)
	b := mustNew(t, "dense", 5)
	a.Add("shared", []float64{1e100, 1})
	a.Add("only-a", []float64{2})
	b.Add("shared", []float64{-1e100})
	b.Add("only-b", []float64{3})
	a.Merge(b)
	if v, _ := a.Sum("shared"); v != 1 {
		t.Errorf("merged shared = %v, want 1 (exact cancellation)", v)
	}
	if v, _ := a.Sum("only-b"); v != 3 {
		t.Errorf("merged only-b = %v, want 3", v)
	}
	// b unchanged.
	if v, _ := b.Sum("shared"); v != -1e100 {
		t.Errorf("merge source mutated: %v", v)
	}
	if n := a.Len(); n != 3 {
		t.Errorf("merged Len = %d, want 3", n)
	}
}

func TestConcurrentKeyedIngestion(t *testing.T) {
	// Racing writers over overlapping keys across every partition count;
	// per-key sums must match the oracle over each key's multiset exactly.
	// Run under -race this also proves lock coverage.
	for _, parts := range partitionCounts {
		t.Run(fmt.Sprintf("p%d", parts), func(t *testing.T) {
			s := mustNew(t, "dense", parts)
			const writers, perWriter, nKeys = 8, 300, 11
			// Every writer adds deterministic values to key (i % nKeys);
			// the multiset per key is then known without coordination.
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						key := fmt.Sprintf("k%d", i%nKeys)
						v := math.Ldexp(float64(w*perWriter+i+1), (i%40)-20)
						s.Add(key, []float64{v, -v / 4})
					}
				}(w)
			}
			wg.Wait()
			want := make(map[string][]float64)
			for w := 0; w < writers; w++ {
				for i := 0; i < perWriter; i++ {
					key := fmt.Sprintf("k%d", i%nKeys)
					v := math.Ldexp(float64(w*perWriter+i+1), (i%40)-20)
					want[key] = append(want[key], v, -v/4)
				}
			}
			for key, xs := range want {
				got, ok := s.Sum(key)
				if !ok {
					t.Fatalf("key %q missing", key)
				}
				if ref := oracle.Sum(xs); math.Float64bits(got) != math.Float64bits(ref) {
					t.Errorf("Sum(%q) = %x, oracle %x", key, math.Float64bits(got), math.Float64bits(ref))
				}
			}
		})
	}
}

func TestNewRejectsUnusableEngines(t *testing.T) {
	if _, err := New(Options{Engine: "no-such-engine"}); err == nil {
		t.Error("unknown engine accepted")
	}
	// kahan is registered but not streaming/deterministic-parallel.
	if _, err := New(Options{Engine: "kahan"}); err == nil {
		t.Error("non-streaming engine accepted")
	}
	// A streaming, deterministic-parallel engine whose accumulators
	// cannot marshal cannot back a keyed store: its state could never be
	// exchanged.
	engine.Register(engine.New("keyed-test-nomarshal",
		"test stub: streams but cannot marshal",
		engine.Caps{Streaming: true, DeterministicParallel: true},
		func(xs []float64) float64 { return 0 },
		func() engine.Accumulator { return &stubAcc{} }))
	if _, err := New(Options{Engine: "keyed-test-nomarshal"}); err == nil {
		t.Error("non-marshalable engine accepted")
	}
}

// stubAcc is a do-nothing accumulator without the binary codec.
type stubAcc struct{}

func (*stubAcc) Add(float64)                 {}
func (*stubAcc) AddSlice([]float64)          {}
func (*stubAcc) Merge(engine.Accumulator)    {}
func (*stubAcc) Round() float64              { return 0 }
func (*stubAcc) Reset()                      {}
func (s *stubAcc) Clone() engine.Accumulator { return s }

func TestKeyValidationPanics(t *testing.T) {
	s := mustNew(t, "dense", 2)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("empty key", func() { s.Add("", []float64{1}) })
	long := make([]byte, MaxKeyLen+1)
	for i := range long {
		long[i] = 'x'
	}
	mustPanic("oversized key", func() { s.Add(string(long), []float64{1}) })
	mustPanic("self-merge", func() { s.Merge(s) })
	o := mustNew(t, "sparse", 2)
	mustPanic("engine-mismatched merge", func() { s.Merge(o) })
}
