package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"parsum/internal/engine"
	"parsum/internal/gen"
	"parsum/internal/stream"
)

// StreamPoint is one measured cell of the sliding-window benchmark: an
// engine at a slot count and bucket size, streaming n values through a
// stream.Window with an Advance (exact eviction) every bucket values and a
// rounded Sum after every advance.
type StreamPoint struct {
	Engine   string  `json:"engine"`
	Slots    int     `json:"slots"`
	Bucket   int     `json:"bucket"` // values per bucket; window spans slots×bucket values
	NsPerOp  int64   `json:"ns_per_op"`
	MopsPerS float64 `json:"mops_per_s"`
}

// StreamSnapshot is the recorded result of StreamBench, written by
// `sumbench -figure stream -jsonout` like the parallel figure.
type StreamSnapshot struct {
	N          int64         `json:"n"`
	Delta      int           `json:"delta"`
	Dist       string        `json:"dist"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Reps       int           `json:"reps"`
	Points     []StreamPoint `json:"points"`
}

// StreamBench measures exact sliding-window throughput for the named
// engines across slot counts × bucket sizes. Every cell is verified
// against the from-scratch oracle: because the stream is fed sequentially
// and evicted FIFO, the live window is a contiguous range of the input, so
// at sampled checkpoints (and at the end) the window's Sum must be
// bit-identical to the engine's one-shot sum of that range — a throughput
// number for a drifting window would be meaningless, so a mismatch panics.
// Engines must be registered and Invertible (StreamBench panics otherwise,
// failing loudly before anything is timed).
func StreamBench(n int64, delta int, slotCounts, bucketSizes []int, engines []string, reps int) StreamSnapshot {
	if reps < 1 {
		reps = 1
	}
	for _, s := range slotCounts {
		if s < 1 {
			panic(fmt.Sprintf("bench: stream slot count %d < 1", s))
		}
	}
	for _, b := range bucketSizes {
		if b < 1 {
			panic(fmt.Sprintf("bench: stream bucket size %d < 1", b))
		}
	}
	snap := StreamSnapshot{
		N:          n,
		Delta:      delta,
		Dist:       gen.Random.String(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Reps:       reps,
	}
	xs := gen.New(gen.Config{Dist: gen.Random, N: n, Delta: delta, Seed: 31}).Slice()
	for _, name := range engines {
		e := engine.MustGet(name)
		if !e.Caps().Invertible {
			panic(fmt.Sprintf("bench: engine %q cannot back a sliding window (not Invertible)", name))
		}
		for _, slots := range slotCounts {
			for _, bucket := range bucketSizes {
				best := time.Duration(1<<63 - 1)
				for r := 0; r < reps; r++ {
					if d := streamOnce(xs, e, slots, bucket); d < best {
						best = d
					}
				}
				snap.Points = append(snap.Points, StreamPoint{
					Engine:   name,
					Slots:    slots,
					Bucket:   bucket,
					NsPerOp:  best.Nanoseconds(),
					MopsPerS: float64(n) / best.Seconds() / 1e6,
				})
			}
		}
	}
	return snap
}

// streamOnce times one full pass of xs through a sliding window: Add every
// value, Advance every bucket values, Sum after every advance. The oracle
// runs at ~8 checkpoints; it is part of the pass and identical in every
// cell, so it cancels out of cross-cell comparisons. The stream is fed
// sequentially and evicted FIFO, so after a advances the live window is
// exactly xs[max(0, a−slots+1)·bucket : i+1].
func streamOnce(xs []float64, e engine.Engine, slots, bucket int) time.Duration {
	w, err := stream.New(stream.Options{Engine: e.Name(), Slots: slots})
	if err != nil {
		panic("bench: " + err.Error())
	}
	checkEvery := len(xs)/8 + 1
	start := time.Now()
	advances, inBucket := 0, 0
	var sink float64
	for i, x := range xs {
		w.Add(x)
		inBucket++
		if inBucket == bucket {
			inBucket = 0
			w.Advance()
			advances++
			sink += w.Sum()
		}
		if (i+1)%checkEvery == 0 || i == len(xs)-1 {
			oldest := 0
			if kept := slots - 1; advances > kept {
				oldest = (advances - kept) * bucket
			}
			want := e.Sum(xs[oldest : i+1])
			if got := w.Sum(); math.Float64bits(got) != math.Float64bits(want) {
				panic(fmt.Sprintf("bench: stream %s slots=%d bucket=%d at %d: window %g != scratch %g",
					e.Name(), slots, bucket, i, got, want))
			}
		}
	}
	_ = sink
	return time.Since(start)
}

// Table renders the snapshot as one experiment table.
func (s StreamSnapshot) Table() Table {
	t := Table{
		Title:  fmt.Sprintf("T-STREAM — exact sliding-window aggregation (n=%d, δ=%d, GOMAXPROCS=%d, best of %d)", s.N, s.Delta, s.GoMaxProcs, s.Reps),
		XLabel: "engine/slots/bucket",
		Series: []string{"time", "Mops/s"},
	}
	for _, p := range s.Points {
		t.Rows = append(t.Rows, Row{
			X: fmt.Sprintf("%s/%d/%d", p.Engine, p.Slots, p.Bucket),
			Values: map[string]string{
				"time":   secs(time.Duration(p.NsPerOp)),
				"Mops/s": fmt.Sprintf("%.1f", p.MopsPerS),
			},
		})
	}
	t.Notes = append(t.Notes,
		"one Advance (exact eviction) + rounded Sum per bucket; every cell verified bit-identical to re-summing the live window from scratch")
	return t
}

// JSON renders the snapshot as indented JSON.
func (s StreamSnapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
