package batch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"parsum/internal/keyed"
	"parsum/internal/oracle"
)

func newKeyedStore(t *testing.T, parts int) *keyed.Store {
	t.Helper()
	s, err := keyed.New(keyed.Options{Engine: "dense", Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// plainSink records the global multiset.
type plainSink struct {
	mu   sync.Mutex
	adds []float64
	subs []float64
}

func (p *plainSink) AddBatch(xs []float64) {
	p.mu.Lock()
	p.adds = append(p.adds, xs...)
	p.mu.Unlock()
}

func (p *plainSink) SubBatch(xs []float64) {
	p.mu.Lock()
	p.subs = append(p.subs, xs...)
	p.mu.Unlock()
}

// dualSink combines the global sink with a keyed store; its flush is
// the shape of the server's flush function, without the journal.
type dualSink struct {
	plainSink
	store *keyed.Store
}

func (d *dualSink) flush(g *Group) error {
	for _, xs := range g.Add {
		d.AddBatch(xs)
	}
	for _, xs := range g.Sub {
		d.SubBatch(xs)
	}
	d.store.AddKeyedBatches(g.AddKeyed)
	d.store.SubKeyedBatches(g.SubKeyed)
	return nil
}

func newDualBatcher(t *testing.T, parts int, opt Options) (*Batcher, *dualSink) {
	t.Helper()
	sink := &dualSink{store: newKeyedStore(t, parts)}
	b := New(sink.flush, opt)
	t.Cleanup(b.Close)
	return b, sink
}

func TestKeyedThroughBatcherBitIdentical(t *testing.T) {
	b, sink := newDualBatcher(t, 4, Options{MaxBatch: 64, QueueLen: 1024})
	want := make(map[string][]float64)
	ctx := context.Background()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wr := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 40; i++ {
				key := fmt.Sprintf("key-%d", wr.Intn(7))
				xs := make([]float64, 1+wr.Intn(5))
				for j := range xs {
					xs[j] = math.Ldexp(wr.Float64()*2-1, wr.Intn(300)-150)
				}
				if err := b.AddKeyed(ctx, key, xs); err != nil {
					t.Errorf("AddKeyed: %v", err)
					return
				}
				mu.Lock()
				want[key] = append(want[key], xs...)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for key, xs := range want {
		got, ok := sink.store.Sum(key)
		if !ok {
			t.Fatalf("key %q missing after flushes", key)
		}
		ref := oracle.Sum(xs)
		if math.Float64bits(got) != math.Float64bits(ref) {
			t.Errorf("Sum(%q) = %x, oracle %x", key, math.Float64bits(got), math.Float64bits(ref))
		}
	}
	m := b.Metrics()
	if m.KeyedEnqueued != 6*40 {
		t.Errorf("KeyedEnqueued = %d, want %d", m.KeyedEnqueued, 6*40)
	}
	if m.KeyedFlushedRequests != m.KeyedEnqueued {
		t.Errorf("KeyedFlushedRequests = %d, want %d", m.KeyedFlushedRequests, m.KeyedEnqueued)
	}
}

// TestKeyedAndUnkeyedShareFlushes drives both kinds through one batcher
// with a dual sink: the keyed values must land per key, the unkeyed
// values in the global sink, with nothing crossing over.
func TestKeyedAndUnkeyedShareFlushes(t *testing.T) {
	b, sink := newDualBatcher(t, 2, Options{MaxBatch: 32})
	ctx := context.Background()

	var wantGlobal, wantKeyA, wantKeyB []float64
	for i := 0; i < 30; i++ {
		g := []float64{float64(i) * 1.5}
		ka := []float64{float64(i) * -0.25}
		kb := []float64{math.Ldexp(1, i-15)}
		if err := b.Add(ctx, g); err != nil {
			t.Fatal(err)
		}
		if err := b.AddKeyed(ctx, "a", ka); err != nil {
			t.Fatal(err)
		}
		if err := b.SubKeyed(ctx, "b", kb); err != nil {
			t.Fatal(err)
		}
		wantGlobal = append(wantGlobal, g...)
		wantKeyA = append(wantKeyA, ka...)
		wantKeyB = append(wantKeyB, kb...)
	}
	sink.mu.Lock()
	gotGlobal := append([]float64(nil), sink.adds...)
	nSubs := len(sink.subs)
	sink.mu.Unlock()
	if nSubs != 0 {
		t.Errorf("keyed deletions leaked into the global sink: %d values", nSubs)
	}
	if got, want := oracle.Sum(gotGlobal), oracle.Sum(wantGlobal); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("global sum = %x, want %x", math.Float64bits(got), math.Float64bits(want))
	}
	if got, _ := sink.store.Sum("a"); math.Float64bits(got) != math.Float64bits(oracle.Sum(wantKeyA)) {
		t.Errorf("key a = %v", got)
	}
	negB := oracle.Sum(wantKeyB)
	if got, _ := sink.store.Sum("b"); math.Float64bits(got) != math.Float64bits(-negB) {
		t.Errorf("key b = %v, want %v", got, -negB)
	}
}

func TestKeyedKeyValidation(t *testing.T) {
	b, sink := newDualBatcher(t, 1, Options{})
	ctx := context.Background()
	if err := b.AddKeyed(ctx, "", []float64{1}); err == nil {
		t.Error("empty key accepted")
	}
	if err := b.AddKeyed(ctx, strings.Repeat("k", keyed.MaxKeyLen+1), []float64{1}); err == nil {
		t.Error("oversized key accepted")
	}
	// An empty keyed batch registers the key — not a no-op like Add(nil).
	if err := b.AddKeyed(ctx, "registered", nil); err != nil {
		t.Fatal(err)
	}
	if v, ok := sink.store.Sum("registered"); !ok || math.Float64bits(v) != 0 {
		t.Errorf("empty keyed batch: Sum = (%v, %v), want (+0, true)", v, ok)
	}
}
