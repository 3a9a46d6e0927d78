package shard

import (
	"math"
	"sync"
	"testing"

	_ "parsum/internal/baseline" // register baseline engines (for rejection tests)
	"parsum/internal/core"
	"parsum/internal/gen"
	"parsum/internal/oracle"
)

func bitEqual(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func dataset(t *testing.T, d gen.Dist, n int64, seed uint64) []float64 {
	t.Helper()
	return gen.New(gen.Config{Dist: d, N: n, Delta: 1200, Seed: seed}).Slice()
}

func TestNewRejectsBadEngines(t *testing.T) {
	if _, err := New(Options{Engine: "no-such-engine"}); err == nil {
		t.Error("unknown engine accepted")
	}
	// adaptive is registered but neither streaming nor parallel-deterministic.
	if _, err := New(Options{Engine: "adaptive"}); err == nil {
		t.Error("non-streaming engine accepted")
	}
	// kahan streams nothing and merges nothing exactly.
	if _, err := New(Options{Engine: "kahan"}); err == nil {
		t.Error("non-deterministic engine accepted")
	}
}

func TestDefaults(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Engine() != core.EngineDense {
		t.Errorf("default engine = %q, want %q", s.Engine(), core.EngineDense)
	}
	if s.Shards() < 1 {
		t.Errorf("default shards = %d", s.Shards())
	}
	if got := s.Sum(); got != 0 {
		t.Errorf("empty Sum = %g, want 0", got)
	}
}

// TestBitIdenticalAcrossShardCounts: for every shard count and both the
// token-striped and Writer-pinned paths, the concurrent sum must be
// bit-identical to the sequential engine and to the math/big oracle.
func TestBitIdenticalAcrossShardCounts(t *testing.T) {
	for _, engName := range []string{"dense", "sparse", "small"} {
		for _, d := range gen.AllDists {
			xs := dataset(t, d, 20000, 17)
			want := oracle.Sum(xs)
			for _, shards := range []int{1, 2, 4, 8} {
				s, err := New(Options{Engine: engName, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				for w := 0; w < 2*shards; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						wr := s.Writer()
						for i := w; i < len(xs); i += 2 * shards {
							if i%2 == 0 {
								wr.Add(xs[i])
							} else {
								s.Add(xs[i]) // exercise the striped-token path too
							}
						}
					}(w)
				}
				wg.Wait()
				if got := s.Sum(); !bitEqual(got, want) {
					t.Fatalf("%s/%v shards=%d: Sum=%g oracle=%g", engName, d, shards, got, want)
				}
				// Sum must be repeatable (non-destructive snapshot).
				if got := s.Snapshot(); !bitEqual(got, want) {
					t.Fatalf("%s/%v shards=%d: second Snapshot diverged", engName, d, shards)
				}
			}
		}
	}
}

// TestAddBatchMatchesAdd: batched ingestion produces the same bits as
// element-wise ingestion.
func TestAddBatchMatchesAdd(t *testing.T) {
	xs := dataset(t, gen.SumZero, 10000, 3)
	a, _ := New(Options{Shards: 4})
	b, _ := New(Options{Shards: 4})
	for _, x := range xs {
		a.Add(x)
	}
	for off := 0; off < len(xs); off += 257 {
		end := min(off+257, len(xs))
		b.AddBatch(xs[off:end])
	}
	if av, bv := a.Sum(), b.Sum(); !bitEqual(av, bv) {
		t.Fatalf("Add=%g AddBatch=%g", av, bv)
	}
}

// TestSnapshotMidIngestion: snapshots taken while the accumulator is
// mid-stream (more data coming) must be bit-identical to the oracle over
// exactly the data ingested so far.
func TestSnapshotMidIngestion(t *testing.T) {
	xs := dataset(t, gen.Random, 30000, 23)
	s, _ := New(Options{Shards: 4})
	const phases = 5
	per := len(xs) / phases
	for p := 0; p < phases; p++ {
		lo, hi := p*per, (p+1)*per
		if p == phases-1 {
			hi = len(xs)
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := lo + w; i < hi; i += 8 {
					s.Add(xs[i])
				}
			}(w)
		}
		wg.Wait()
		if got, want := s.Snapshot(), oracle.Sum(xs[:hi]); !bitEqual(got, want) {
			t.Fatalf("phase %d: snapshot=%g oracle=%g", p, got, want)
		}
	}
}

// TestConcurrentSnapshotsDoNotPerturb: snapshots racing with writers must
// not change what the final sum converges to, and every racing snapshot
// must itself be a correctly rounded sum of a subset — checked here for
// the all-positive distribution, where any subset sum lies in [0, total].
func TestConcurrentSnapshotsDoNotPerturb(t *testing.T) {
	xs := dataset(t, gen.CondOne, 20000, 29)
	want := oracle.Sum(xs)
	s, _ := New(Options{Shards: 4})
	done := make(chan struct{})
	var snaps []float64
	var snapWg sync.WaitGroup
	snapWg.Add(1)
	go func() {
		defer snapWg.Done()
		for {
			select {
			case <-done:
				return
			default:
				snaps = append(snaps, s.Snapshot())
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(xs); i += 4 {
				s.Add(xs[i])
			}
		}(w)
	}
	wg.Wait()
	close(done)
	snapWg.Wait()
	if got := s.Sum(); !bitEqual(got, want) {
		t.Fatalf("final Sum=%g oracle=%g", got, want)
	}
	prev := 0.0
	for i, v := range snaps {
		if v < 0 || v > want {
			t.Fatalf("snapshot %d = %g outside [0, %g]", i, v, want)
		}
		if v < prev { // all inputs positive → snapshots are monotone
			t.Fatalf("snapshot %d = %g < previous %g on positive data", i, v, prev)
		}
		prev = v
	}
}

func TestResetAndReuse(t *testing.T) {
	xs := dataset(t, gen.Random, 5000, 31)
	s, _ := New(Options{Shards: 2})
	s.AddBatch(xs)
	if s.Sum() == 0 {
		t.Fatal("sum of random data unexpectedly 0")
	}
	s.Reset()
	if got := s.Sum(); got != 0 {
		t.Fatalf("Sum after Reset = %g, want 0", got)
	}
	s.AddBatch(xs)
	if got, want := s.Sum(), oracle.Sum(xs); !bitEqual(got, want) {
		t.Fatalf("reuse after Reset: %g != %g", got, want)
	}
}

func TestMerge(t *testing.T) {
	xs := dataset(t, gen.Anderson, 8000, 37)
	half := len(xs) / 2
	a, _ := New(Options{Shards: 3})
	b, _ := New(Options{Shards: 5})
	a.AddBatch(xs[:half])
	b.AddBatch(xs[half:])
	a.Merge(b)
	if got, want := a.Sum(), oracle.Sum(xs); !bitEqual(got, want) {
		t.Fatalf("merged Sum=%g oracle=%g", got, want)
	}
	// b is unchanged and still usable.
	if got, want := b.Sum(), oracle.Sum(xs[half:]); !bitEqual(got, want) {
		t.Fatalf("merge source changed: %g != %g", got, want)
	}
	b.Add(1)
	if got, want := b.Sum(), oracle.Sum(append(append([]float64{}, xs[half:]...), 1)); !bitEqual(got, want) {
		t.Fatalf("merge source unusable after Merge: %g != %g", got, want)
	}
}

func TestMergePanics(t *testing.T) {
	a, _ := New(Options{Engine: "dense"})
	b, _ := New(Options{Engine: "sparse"})
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("self-merge", func() { a.Merge(a) })
	mustPanic("engine mismatch", func() { a.Merge(b) })
}

// TestSpecials: IEEE specials flow through sharded ingestion with the
// same semantics as the sequential engines.
func TestSpecials(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"pos-inf", []float64{1, math.Inf(1), 2}, math.Inf(1)},
		{"both-inf", []float64{math.Inf(1), math.Inf(-1)}, math.NaN()},
		{"nan", []float64{1, math.NaN()}, math.NaN()},
		{"cancel", []float64{1e300, -1e300}, 0},
	}
	for _, tc := range cases {
		s, _ := New(Options{Shards: 2})
		for _, x := range tc.xs {
			s.Add(x)
		}
		if got := s.Sum(); !bitEqual(got, tc.want) {
			t.Errorf("%s: Sum=%g want %g", tc.name, got, tc.want)
		}
	}
}

func BenchmarkShardedIngest(b *testing.B) {
	xs := gen.New(gen.Config{Dist: gen.Random, N: 1 << 16, Delta: 1200, Seed: 7}).Slice()
	s, _ := New(Options{})
	b.SetBytes(int64(len(xs) * 8))
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s.AddBatch(xs)
		}
	})
}
