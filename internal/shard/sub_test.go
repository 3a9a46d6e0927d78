package shard

import (
	"math"
	"sync"
	"testing"

	"parsum/internal/engine"
	"parsum/internal/gen"
	"parsum/internal/oracle"
)

// TestSubRestoresSnapshotBits: ingesting a∪b then deleting b — through
// every combination of Sub/SubBatch on the striped and writer-pinned paths
// — snapshots bit-identically to ingesting a alone, for every engine that
// can back a window.
func TestSubRestoresSnapshotBits(t *testing.T) {
	a := dataset(t, gen.Random, 3000, 51)
	b := dataset(t, gen.SumZero, 2000, 52)
	b = append(b, math.Inf(1), math.NaN(), math.Inf(-1))
	for _, name := range []string{"dense", "sparse", "small"} {
		want := engine.MustGet(name).Sum(a)
		for _, shards := range []int{1, 4} {
			s, err := New(Options{Engine: name, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if !s.Invertible() {
				t.Fatalf("%s: Invertible() = false", name)
			}
			s.AddBatch(a)
			s.AddBatch(b[:len(b)/2])
			for _, x := range b[len(b)/2:] {
				s.Add(x)
			}
			// Delete b back out through all three deletion surfaces.
			third := len(b) / 3
			s.SubBatch(b[:third])
			for _, x := range b[third : 2*third] {
				s.Sub(x)
			}
			w := s.Writer()
			w.SubBatch(b[2*third : 2*third+(len(b)-2*third)/2])
			for _, x := range b[2*third+(len(b)-2*third)/2:] {
				w.Sub(x)
			}
			if got := s.Sum(); !bitEqual(got, want) {
				t.Fatalf("%s shards=%d: %x != %x", name, shards,
					math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// TestSubConcurrentWithSnapshots races adders, deleters, and snapshotters;
// the quiesced sum must be the sequential sum of the surviving multiset.
func TestSubConcurrentWithSnapshots(t *testing.T) {
	keep := dataset(t, gen.Anderson, 4000, 61)
	churn := dataset(t, gen.Random, 4000, 62)
	s, err := New(Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(keep); i += 4 {
				s.Add(keep[i])
			}
			// Churn: add then fully delete a slice of values.
			var mine []float64
			for i := g; i < len(churn); i += 4 {
				mine = append(mine, churn[i])
			}
			s.AddBatch(mine)
			s.SubBatch(mine)
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = s.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)
	want := engine.MustGet("dense").Sum(keep)
	if got := s.Sum(); !bitEqual(got, want) {
		t.Fatalf("churned sum %x != %x", math.Float64bits(got), math.Float64bits(want))
	}
}

// TestSubPanicsWithoutInvertibleEngine pins the failure mode for engines
// that cannot delete. No registered engine is Streaming+Deterministic but
// not Invertible, so construct the panic through the internal flag.
func TestSubPanicsWithoutInvertibleEngine(t *testing.T) {
	s, err := New(Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.inv = false // simulate a non-invertible streaming engine
	for name, fn := range map[string]func(){
		"Sub":             func() { s.Sub(1) },
		"SubBatch":        func() { s.SubBatch([]float64{1}) },
		"Writer.Sub":      func() { s.Writer().Sub(1) },
		"Writer.SubBatch": func() { s.Writer().SubBatch([]float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on non-invertible engine did not panic", name)
				}
			}()
			fn()
		}()
	}
	if s.Invertible() {
		t.Error("Invertible() should report false")
	}
}

// TestSubBatchEmpty: deleting nothing is a no-op, not a lock dance.
func TestSubBatchEmpty(t *testing.T) {
	s, err := New(Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Add(2.5)
	s.SubBatch(nil)
	if got := s.Sum(); got != 2.5 {
		t.Fatalf("SubBatch(nil) changed sum: %g", got)
	}
}

// TestBatchesMatchOracle: the batcher's zero-copy flush calls —
// AddBatches and SubBatches, each applying a whole group of request
// slices under one shard lock — leave every engine bit-identical to the
// math/big oracle of the surviving multiset, with groups flushed from
// several goroutines at once.
func TestBatchesMatchOracle(t *testing.T) {
	keep := dataset(t, gen.Random, 3000, 71)
	churn := dataset(t, gen.SumZero, 3000, 72)
	want := oracle.Sum(keep)
	for _, name := range []string{"dense", "sparse", "small"} {
		for _, shards := range []int{1, 4} {
			s, err := New(Options{Engine: name, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					lo, hi := g*1000, (g+1)*1000
					k, c := keep[lo:hi], churn[lo:hi]
					s.AddBatches([][]float64{k[:300], c, nil, k[300:]})
					s.AddBatches(nil)
					s.SubBatches([][]float64{c[:500], nil, c[500:]})
					s.SubBatches(nil)
				}(g)
			}
			wg.Wait()
			if got := s.Sum(); !bitEqual(got, want) {
				t.Fatalf("%s shards=%d: %x != oracle %x", name, shards, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}
