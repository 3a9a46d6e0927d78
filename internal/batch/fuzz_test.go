package batch_test

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"parsum/internal/batch"
	"parsum/internal/oracle"
	"parsum/internal/shard"
)

// FuzzBatcherInterleave drives random enqueue/flush/reject schedules
// through the batcher and checks the group-commit contract against the
// math/big oracle: whatever interleaving, batch geometry, flush cause
// mix, or rejection pattern the schedule produces, the sink's final sum
// must be bit-identical to the exact sum of the *accepted* multiset
// (adds minus subs). Rejected submissions must leave no trace.
//
// The corpus seeds under testdata/fuzz cover the interesting regimes:
// single-request queues that force rejections, deadline-heavy trickles,
// and size-heavy bursts.
func FuzzBatcherInterleave(f *testing.F) {
	f.Add([]byte{1, 4, 1, 1, 0x00, 0x41, 0x12, 0x7f, 0x03})
	f.Add([]byte{8, 64, 4, 2, 0x01, 0x02, 0x43, 0x44, 0x05, 0x46, 0x07, 0x48})
	f.Add([]byte{2, 1, 2, 1, 0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			t.Skip("schedule too short")
		}
		opt := batch.Options{
			QueueLen: 1 + int(data[0]%8),
			MaxBatch: 1 + int(data[1]%64),
			Flushers: 1 + int(data[2]%2),
		}
		shards := 1 + int(data[3]%4)
		ops := data[4:]
		if len(ops) > 192 {
			ops = ops[:192]
		}

		// Pre-generate every submission deterministically: op byte picks
		// size, add-vs-sub, and retry policy; the value stream comes from
		// a seed derived from the schedule.
		seed := int64(len(ops))
		for _, b := range data {
			seed = seed*131 + int64(b)
		}
		r := rand.New(rand.NewSource(seed))
		type submission struct {
			values []float64
			sub    bool
			retry  bool
		}
		const workers = 3
		perWorker := make([][]submission, workers)
		for i, op := range ops {
			n := 1 + int(op&0x3f)%7
			xs := make([]float64, n)
			for j := range xs {
				xs[j] = math.Ldexp(r.Float64()-0.5, r.Intn(60)-30)
			}
			w := i % workers
			perWorker[w] = append(perWorker[w], submission{
				values: xs,
				sub:    op&0x40 != 0,
				retry:  op&0x80 != 0,
			})
		}

		s, err := shard.New(shard.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		b := batch.New(applyTo(s), opt)
		acceptedAdds := make([][]float64, workers)
		acceptedSubs := make([][]float64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ctx := context.Background()
				for _, sub := range perWorker[w] {
					attempts := 1
					if sub.retry {
						attempts = 3
					}
					var err error
					for a := 0; a < attempts; a++ {
						if sub.sub {
							err = b.Sub(ctx, sub.values)
						} else {
							err = b.Add(ctx, sub.values)
						}
						if err != batch.ErrQueueFull {
							break
						}
						time.Sleep(50 * time.Microsecond)
					}
					switch err {
					case nil:
						if sub.sub {
							acceptedSubs[w] = append(acceptedSubs[w], sub.values...)
						} else {
							acceptedAdds[w] = append(acceptedAdds[w], sub.values...)
						}
					case batch.ErrQueueFull:
						// Rejected: must not appear in the final sum.
					default:
						t.Errorf("worker %d: %v", w, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		b.Close()

		var multiset []float64
		for w := 0; w < workers; w++ {
			multiset = append(multiset, acceptedAdds[w]...)
			for _, v := range acceptedSubs[w] {
				// Exact deletion of finite v is exact accumulation of -v.
				multiset = append(multiset, -v)
			}
		}
		want := oracle.Sum(multiset)
		got := s.Sum()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("queue=%d maxBatch=%d flushers=%d shards=%d: sum %g (%016x) != oracle %g (%016x) over %d accepted values",
				opt.QueueLen, opt.MaxBatch, opt.Flushers, shards,
				got, math.Float64bits(got), want, math.Float64bits(want), len(multiset))
		}
		m := b.Metrics()
		if m.FlushedRequests != m.Enqueued || m.QueueDepth != 0 {
			t.Fatalf("post-Close metrics not drained: %+v", m)
		}
	})
}
