package stream_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"parsum/internal/engine"
	"parsum/internal/gen"
	"parsum/internal/stream"
)

// invertibleEngines are the engines a Window can run on.
var invertibleEngines = []string{"dense", "sparse", "small"}

func bitEqual(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// windowModel mirrors a stream.Window with raw values: a ring of value
// slices. It is the from-scratch oracle the bit-identity claim is checked
// against.
type windowModel struct {
	buckets [][]float64
	cur     int
}

func newModel(slots int) *windowModel {
	return &windowModel{buckets: make([][]float64, slots)}
}

func (m *windowModel) add(x float64) {
	m.buckets[m.cur] = append(m.buckets[m.cur], x)
}

func (m *windowModel) advance() {
	m.cur = (m.cur + 1) % len(m.buckets)
	m.buckets[m.cur] = nil
}

func (m *windowModel) live() []float64 {
	var out []float64
	for _, b := range m.buckets {
		out = append(out, b...)
	}
	return out
}

// tickStream builds an adversarial value stream: the paper's generated
// distributions salted with huge cancelling pairs, denormals, and (when
// specials is set) NaN and both infinities, so evicting a bucket must
// exactly un-do non-finite state too.
func tickStream(n int, seed uint64, specials bool) []float64 {
	xs := gen.New(gen.Config{Dist: gen.Random, N: int64(n), Delta: 1800, Seed: seed}).Slice()
	rng := rand.New(rand.NewSource(int64(seed)))
	for i := 0; i < n/20; i++ {
		j := rng.Intn(n)
		switch rng.Intn(6) {
		case 0:
			xs[j] = math.MaxFloat64
		case 1:
			xs[j] = -math.MaxFloat64
		case 2:
			xs[j] = math.SmallestNonzeroFloat64
		case 3:
			xs[j] = math.Copysign(0, -1)
		case 4:
			if specials {
				xs[j] = math.Inf(1 - 2*rng.Intn(2))
			}
		case 5:
			if specials {
				xs[j] = math.NaN()
			}
		}
	}
	return xs
}

// TestWindowBitIdenticalToScratch is the acceptance property: for
// randomized slot counts, eviction orders, and snapshot timings — with
// specials in the stream — the window's Sum is bit-identical to
// accumulating the live values from scratch, and to the window's own
// MergeTree refold.
func TestWindowBitIdenticalToScratch(t *testing.T) {
	for _, name := range invertibleEngines {
		e := engine.MustGet(name)
		for _, slots := range []int{1, 4, 16} {
			for _, specials := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/slots=%d/specials=%v", name, slots, specials), func(t *testing.T) {
					w, err := stream.New(stream.Options{Engine: name, Slots: slots})
					if err != nil {
						t.Fatal(err)
					}
					m := newModel(slots)
					xs := tickStream(4000, uint64(17*slots), specials)
					rng := rand.New(rand.NewSource(int64(slots)))
					checks := 0
					for i, x := range xs {
						w.Add(x)
						m.add(x)
						// Randomized eviction order: advance with varying
						// cadence, sometimes several buckets at once.
						if rng.Intn(37) == 0 {
							for k := rng.Intn(slots) + 1; k > 0; k-- {
								w.Advance()
								m.advance()
							}
						}
						// Snapshot at arbitrary timings, including right
						// after a burst of advances and mid-bucket.
						if rng.Intn(101) == 0 || i == len(xs)-1 {
							checks++
							live := m.live()
							want := e.Sum(live)
							if got := w.Sum(); !bitEqual(got, want) {
								t.Fatalf("tick %d: window sum %x != scratch %x (%d live values)",
									i, math.Float64bits(got), math.Float64bits(want), len(live))
							}
							if got := w.Resum(); !bitEqual(got, want) {
								t.Fatalf("tick %d: Resum %x != scratch %x", i, math.Float64bits(got), math.Float64bits(want))
							}
							if got, n := w.Stats(); n != int64(len(live)) || !bitEqual(got, want) {
								t.Fatalf("tick %d: Stats=(%x,%d) want (%x,%d)",
									i, math.Float64bits(got), n, math.Float64bits(want), len(live))
							}
						}
					}
					if checks < 10 {
						t.Fatalf("only %d snapshots exercised", checks)
					}
				})
			}
		}
	}
}

// TestWindowRetraction: Sub deletes from the current bucket exactly,
// including non-finite values, and the window stays bit-identical to
// scratch afterwards.
func TestWindowRetraction(t *testing.T) {
	for _, name := range invertibleEngines {
		e := engine.MustGet(name)
		t.Run(name, func(t *testing.T) {
			w, err := stream.New(stream.Options{Engine: name, Slots: 4})
			if err != nil {
				t.Fatal(err)
			}
			m := newModel(4)
			xs := tickStream(1200, 99, true)
			rng := rand.New(rand.NewSource(7))
			for i, x := range xs {
				w.Add(x)
				m.add(x)
				cur := m.buckets[m.cur]
				if rng.Intn(3) == 0 && len(cur) > 0 {
					// Retract a random value added to the current bucket.
					j := rng.Intn(len(cur))
					w.Sub(cur[j])
					m.buckets[m.cur] = append(cur[:j:j], cur[j+1:]...)
				}
				if rng.Intn(29) == 0 {
					w.Advance()
					m.advance()
				}
				if rng.Intn(83) == 0 || i == len(xs)-1 {
					want := e.Sum(m.live())
					if got := w.Sum(); !bitEqual(got, want) {
						t.Fatalf("tick %d: after retractions, sum %x != scratch %x",
							i, math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
		})
	}
}

// TestWindowMean pins Mean to the two-rounding definition and the empty
// window to NaN.
func TestWindowMean(t *testing.T) {
	w, err := stream.New(stream.Options{Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Mean(); !math.IsNaN(got) {
		t.Fatalf("empty window Mean = %g, want NaN", got)
	}
	xs := []float64{1e100, 1, -1e100, 3}
	for _, x := range xs {
		w.Add(x)
	}
	want := w.Sum() / float64(len(xs))
	if got := w.Mean(); !bitEqual(got, want) {
		t.Fatalf("Mean = %x, want %x", math.Float64bits(got), math.Float64bits(want))
	}
}

// TestWindowFullEviction: advancing through every slot evicts the whole
// window — the running total must return to the exact zero group element
// (+0 bits, zero count), no matter what the stream held. This is the
// strongest interleaving-independent invariant, so the concurrency test
// reuses it after racing writers.
func TestWindowFullEviction(t *testing.T) {
	for _, name := range invertibleEngines {
		t.Run(name, func(t *testing.T) {
			w, err := stream.New(stream.Options{Engine: name, Slots: 5})
			if err != nil {
				t.Fatal(err)
			}
			w.AddBatch(tickStream(500, 3, true))
			w.Advance()
			w.AddBatch(tickStream(300, 4, true))
			for i := 0; i < w.Slots(); i++ {
				w.Advance()
			}
			if got := w.Sum(); math.Float64bits(got) != 0 {
				t.Fatalf("fully evicted window sum = %x, want +0", math.Float64bits(got))
			}
			if n := w.Count(); n != 0 {
				t.Fatalf("fully evicted window count = %d, want 0", n)
			}
		})
	}
}

// TestWindowConcurrent races writers, an advancing goroutine, and
// snapshotters (run under -race in CI). Mid-advance snapshots must never
// tear — every Sum/Resum observation is a linearized exact sum — and after
// quiescing and evicting every bucket the total must be exactly +0.
func TestWindowConcurrent(t *testing.T) {
	for _, name := range []string{"dense", "sparse"} {
		t.Run(name, func(t *testing.T) {
			w, err := stream.New(stream.Options{Engine: name, Slots: 8})
			if err != nil {
				t.Fatal(err)
			}
			const writers = 4
			var wg sync.WaitGroup
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					xs := tickStream(2000, uint64(100+g), true)
					for i, x := range xs {
						w.Add(x)
						if i%5 == 0 {
							w.Sub(x) // retract some to exercise Sub under race
						}
					}
				}(g)
			}
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					w.Advance()
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < 400; i++ {
					// Mid-race observations have no deterministic expected
					// value; taking them exercises the snapshot paths under
					// the race detector.
					_, _ = w.Stats()
					_ = w.Mean()
					_ = w.Resum()
				}
			}()
			wg.Wait()
			for i := 0; i < w.Slots(); i++ {
				w.Advance()
			}
			if got := w.Sum(); math.Float64bits(got) != 0 {
				t.Fatalf("post-race fully evicted sum = %x, want +0", math.Float64bits(got))
			}
		})
	}
}

// TestWindowReset: Reset restores the empty state.
func TestWindowReset(t *testing.T) {
	w, err := stream.New(stream.Options{Slots: 3})
	if err != nil {
		t.Fatal(err)
	}
	w.AddBatch([]float64{1, 2, math.Inf(1)})
	w.Advance()
	w.Add(5)
	w.Reset()
	if got := w.Sum(); math.Float64bits(got) != 0 {
		t.Fatalf("post-Reset sum = %x, want +0", math.Float64bits(got))
	}
	if w.Count() != 0 || w.Advances() != 0 {
		t.Fatalf("post-Reset count=%d advances=%d, want 0,0", w.Count(), w.Advances())
	}
	w.Add(2.5)
	if got := w.Sum(); got != 2.5 {
		t.Fatalf("window unusable after Reset: sum %g", got)
	}
}

// TestWindowOptionErrors pins the constructor's validation.
func TestWindowOptionErrors(t *testing.T) {
	if _, err := stream.New(stream.Options{Engine: "no-such-engine"}); err == nil {
		t.Error("unknown engine accepted")
	}
	// Non-streaming and non-invertible engines cannot back a window.
	for _, name := range []string{"kahan", "naive", "adaptive", "truncated", "ifastsum"} {
		if _, err := stream.New(stream.Options{Engine: name}); err == nil {
			t.Errorf("engine %q accepted (not invertible)", name)
		}
	}
	if _, err := stream.New(stream.Options{Slots: -1}); err == nil {
		t.Error("negative slot count accepted")
	}
	w, err := stream.New(stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w.Slots() != stream.DefaultSlots || w.Engine() != "dense" {
		t.Fatalf("zero options: slots=%d engine=%q", w.Slots(), w.Engine())
	}
}
