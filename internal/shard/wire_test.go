package shard_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	_ "parsum/internal/core" // register superaccumulator engines
	"parsum/internal/engine"
	"parsum/internal/oracle"
	"parsum/internal/shard"
)

func wireValues(r *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Ldexp(r.Float64()*2-1, r.Intn(1200)-600)
	}
	return xs
}

// TestSnapshotMergeBytesRoundTrip: a partial exported from one Sharded and
// merged into another must contribute exactly, for every wire-capable
// sharded engine.
func TestSnapshotMergeBytesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, eng := range []string{"dense", "sparse", "small"} {
		t.Run(eng, func(t *testing.T) {
			xs := wireValues(r, 5000)
			a, err := shard.New(shard.Options{Engine: eng, Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			b, err := shard.New(shard.Options{Engine: eng, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			a.AddBatch(xs[:2000])
			b.AddBatch(xs[2000:])
			blob, err := b.SnapshotBytes()
			if err != nil {
				t.Fatal(err)
			}
			if err := a.MergeBytes(blob); err != nil {
				t.Fatal(err)
			}
			want := oracle.Sum(xs)
			got := a.Sum()
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("merged sum=%g oracle=%g", got, want)
			}
			// b is unchanged and remains usable.
			w2 := oracle.Sum(xs[2000:])
			if g2 := b.Sum(); g2 != w2 {
				t.Fatalf("source sharded changed by SnapshotBytes: %g != %g", g2, w2)
			}
		})
	}
}

// TestMergeBytesConcurrentPushersBitIdentical: many goroutines pushing
// serialized partials while others ingest raw values must still produce
// the oracle's bits — the distributed determinism claim at the shard
// layer.
func TestMergeBytesConcurrentPushersBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	xs := wireValues(r, 12000)
	s, err := shard.New(shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	const pushers = 8
	slice := len(xs) / (pushers + 1)
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		part := xs[p*slice : (p+1)*slice]
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := shard.New(shard.Options{Shards: 2})
			if err != nil {
				t.Error(err)
				return
			}
			w.AddBatch(part)
			blob, err := w.SnapshotBytes()
			if err != nil {
				t.Error(err)
				return
			}
			if err := s.MergeBytes(blob); err != nil {
				t.Error(err)
			}
		}()
	}
	// One direct ingester racing the pushers, plus mid-flight snapshots.
	rest := xs[pushers*slice:]
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.AddBatch(rest)
	}()
	go func() {
		defer wg.Done()
		_ = s.Sum()
		if _, err := s.SnapshotBytes(); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if got, want := s.Sum(), oracle.Sum(xs); got != want {
		t.Fatalf("concurrent merged sum=%g oracle=%g", got, want)
	}
}

func TestMergeBytesRejectsBadInput(t *testing.T) {
	s, err := shard.New(shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Add(1)
	if err := s.MergeBytes(nil); err == nil {
		t.Error("nil payload accepted")
	}
	if err := s.MergeBytes([]byte{0xC7, 1, 0xFF}); err == nil {
		t.Error("garbage payload accepted")
	}
	// Engine mismatch: a sparse partial into a dense-backed Sharded.
	o, err := shard.New(shard.Options{Engine: "sparse"})
	if err != nil {
		t.Fatal(err)
	}
	o.Add(2)
	blob, err := o.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MergeBytes(blob); err == nil {
		t.Error("cross-engine partial accepted")
	}
	// The failed merges must not have corrupted s.
	if got := s.Sum(); got != 1 {
		t.Fatalf("rejected merges changed the sum: %g", got)
	}
}

// TestSnapshotBytesIsAPartial pins that the exported payload decodes at
// the engine layer to the same exact value Snapshot rounds.
func TestSnapshotBytesIsAPartial(t *testing.T) {
	s, err := shard.New(shard.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	xs := []float64{1e300, -1e300, 1e-300, 42.0625, -0x1p-1070}
	s.AddBatch(xs)
	blob, err := s.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	name, acc, err := engine.UnmarshalPartial(blob)
	if err != nil {
		t.Fatal(err)
	}
	if name != s.Engine() {
		t.Fatalf("partial engine %q, sharded engine %q", name, s.Engine())
	}
	if got, want := acc.Round(), oracle.Sum(xs); got != want {
		t.Fatalf("decoded partial=%g oracle=%g", got, want)
	}
}
