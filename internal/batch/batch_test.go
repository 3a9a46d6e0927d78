// Unit tests for the batcher: drain-and-flush group commit (made
// deterministic by a gated sink that holds one flush open while the next
// group queues behind it, so no test depends on timing), MaxBatch
// splitting a backlog into size flushes, bounded-queue rejection with
// untouched state, drain-on-Close, the zero-allocation enqueue hot path,
// and the consistency invariants of the metrics snapshot under
// concurrency.
package batch_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"parsum"
	"parsum/internal/batch"
	"parsum/internal/oracle"
	"parsum/internal/shard"
)

// recSink records every sink call. It implements only Sink (not
// SliceSink), so multi-request flushes exercise the concatenation path.
type recSink struct {
	mu    sync.Mutex
	adds  []float64
	subs  []float64
	calls [][]float64 // every AddBatch/SubBatch payload, in call order

	gate    chan struct{} // when non-nil, every call waits until it is closed
	entered chan struct{} // when non-nil, every call signals here first
}

// gatedSink returns a recSink whose calls park until the test closes
// gate. entered is buffered past any test's call count, so signalling
// never blocks a flush.
func gatedSink() *recSink {
	return &recSink{gate: make(chan struct{}), entered: make(chan struct{}, 64)}
}

func (r *recSink) apply(xs []float64, sub bool) {
	if r.entered != nil {
		r.entered <- struct{}{}
	}
	if r.gate != nil {
		<-r.gate
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := append([]float64(nil), xs...)
	r.calls = append(r.calls, cp)
	if sub {
		r.subs = append(r.subs, cp...)
	} else {
		r.adds = append(r.adds, cp...)
	}
}

func (r *recSink) AddBatch(xs []float64) { r.apply(xs, false) }
func (r *recSink) SubBatch(xs []float64) { r.apply(xs, true) }

func (r *recSink) snapshot() (adds, subs []float64, calls int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.adds...), append([]float64(nil), r.subs...), len(r.calls)
}

// callLens returns the payload length of every sink call, in call order.
func (r *recSink) callLens() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	lens := make([]int, len(r.calls))
	for i, c := range r.calls {
		lens[i] = len(c)
	}
	return lens
}

// waitFor polls cond until it holds or the test deadline budget burns.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func seq(lo, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(lo + i)
	}
	return xs
}

// submit runs one Add or Sub in its own goroutine and delivers the
// result on the returned channel.
func submit(ctx context.Context, b *batch.Batcher, xs []float64, sub bool) <-chan error {
	errc := make(chan error, 1)
	go func() {
		if sub {
			errc <- b.Sub(ctx, xs)
		} else {
			errc <- b.Add(ctx, xs)
		}
	}()
	return errc
}

// holdFlush submits xs and returns once the flusher is parked inside the
// gated sink with it. Until the gate opens, everything submitted later
// waits in the queue and forms the next flush group.
func holdFlush(b *batch.Batcher, sink *recSink, xs []float64) <-chan error {
	errc := submit(context.Background(), b, xs, false)
	<-sink.entered
	return errc
}

func waitAll(t *testing.T, errcs ...<-chan error) {
	t.Helper()
	for i, errc := range errcs {
		if err := <-errc; err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

// TestSizeFlushCoalesces proves the MaxBatch cap: nine 2-value requests
// queue behind a held flush, and with MaxBatch 8 they leave the queue as
// two capped 8-value flushes (cause size) and one 2-value remainder that
// empties the queue (cause drain). Each group is one sink call, and
// every Add returns only after its flush completed (group commit).
func TestSizeFlushCoalesces(t *testing.T) {
	sink := gatedSink()
	b := batch.New(sink, batch.Options{QueueLen: 16, MaxBatch: 8})
	defer b.Close()

	errcs := []<-chan error{holdFlush(b, sink, seq(0, 2))}
	for i := 1; i <= 9; i++ {
		errcs = append(errcs, submit(context.Background(), b, seq(10*i, 2), false))
	}
	waitFor(t, "backlog to queue", func() bool { return b.Metrics().Enqueued == 10 })
	close(sink.gate)
	waitAll(t, errcs...)

	if got, want := sink.callLens(), []int{2, 8, 8, 2}; !slices.Equal(got, want) {
		t.Fatalf("sink call sizes %v, want %v", got, want)
	}
	m := b.Metrics()
	if m.Flushes != 4 || m.SizeFlushes != 2 || m.DrainFlushes != 2 {
		t.Fatalf("flush causes: %+v, want 2 size and 2 drain flushes", m)
	}
	if m.FlushedRequests != 10 || m.FlushedValues != 20 || m.QueueDepth != 0 {
		t.Fatalf("flush counters inconsistent: %+v", m)
	}
}

// TestLoneRequestFlushesAtOnce: with no other traffic and MaxBatch far
// away, a request is applied and answered without waiting for company,
// and the flush counts as a drain.
func TestLoneRequestFlushesAtOnce(t *testing.T) {
	sink := &recSink{}
	b := batch.New(sink, batch.Options{QueueLen: 4, MaxBatch: 1 << 20})
	defer b.Close()

	if err := b.Add(context.Background(), seq(0, 3)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	adds, _, calls := sink.snapshot()
	if calls != 1 || len(adds) != 3 {
		t.Fatalf("got %d calls with %d values, want 1 with 3", calls, len(adds))
	}
	if m := b.Metrics(); m.DrainFlushes != 1 || m.SizeFlushes != 0 {
		t.Fatalf("want exactly one drain flush, got %+v", m)
	}
}

// TestLoneRequestsApplyInOrder: successive lone requests each flush on
// their own, and the sink sees them in submission order.
func TestLoneRequestsApplyInOrder(t *testing.T) {
	sink := &recSink{}
	b := batch.New(sink, batch.Options{QueueLen: 4, MaxBatch: 1 << 20})
	defer b.Close()

	for _, lo := range []int{100, 200, 300} {
		if err := b.Add(context.Background(), seq(lo, 2)); err != nil {
			t.Fatalf("Add(%d): %v", lo, err)
		}
	}
	sink.mu.Lock()
	var firsts []float64
	for _, c := range sink.calls {
		firsts = append(firsts, c[0])
	}
	sink.mu.Unlock()
	if len(firsts) != 3 || firsts[0] != 100 || firsts[1] != 200 || firsts[2] != 300 {
		t.Fatalf("sink calls began with %v, want [100 200 300]", firsts)
	}
	if m := b.Metrics(); m.DrainFlushes != 3 || m.Flushes != 3 {
		t.Fatalf("want 3 drain flushes, got %+v", m)
	}
}

// TestRejectLeavesStateUntouched fills the bounded queue behind a
// blocked sink and asserts the overflowing request fails fast with
// ErrQueueFull, mutates nothing, and is invisible to the sink forever —
// the exactness half of the 429 contract.
func TestRejectLeavesStateUntouched(t *testing.T) {
	sink := gatedSink()
	b := batch.New(sink, batch.Options{QueueLen: 2, MaxBatch: 1})
	defer b.Close()

	ctx := context.Background()
	results := make(chan error, 3)
	go func() { results <- b.Add(ctx, []float64{1}) }()
	<-sink.entered // flusher is now blocked inside the sink holding request 1

	go func() { results <- b.Add(ctx, []float64{2}) }()
	go func() { results <- b.Add(ctx, []float64{3}) }()
	// Depth 3: request 1 is admitted-but-unflushed (the sink is holding
	// its flush open) and requests 2 and 3 fill the two queue slots.
	waitFor(t, "queue to fill", func() bool { return b.Metrics().QueueDepth == 3 })

	before := b.Metrics()
	err := b.Add(ctx, []float64{4})
	if err != batch.ErrQueueFull {
		t.Fatalf("overflow Add: got %v, want ErrQueueFull", err)
	}
	after := b.Metrics()
	if after.Rejected != before.Rejected+1 {
		t.Fatalf("Rejected: got %d, want %d", after.Rejected, before.Rejected+1)
	}
	if after.Enqueued != before.Enqueued || after.EnqueuedValues != before.EnqueuedValues || after.QueueDepth != before.QueueDepth {
		t.Fatalf("rejection mutated admission state: before %+v after %+v", before, after)
	}

	close(sink.gate) // release the sink; everything admitted must complete
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted Add failed: %v", err)
		}
	}
	waitFor(t, "drain", func() bool { return b.Metrics().QueueDepth == 0 })
	adds, _, _ := sink.snapshot()
	sum := 0.0
	for _, v := range adds {
		sum += v
	}
	if len(adds) != 3 || sum != 6 {
		t.Fatalf("sink saw %v, want exactly the admitted values {1,2,3}", adds)
	}
}

// TestSubSplitsFromAdds queues insertions and deletions behind a held
// flush so they form one group, and asserts the batcher routes that
// group to one concatenated AddBatch and one SubBatch call.
func TestSubSplitsFromAdds(t *testing.T) {
	sink := gatedSink()
	b := batch.New(sink, batch.Options{QueueLen: 16, MaxBatch: 64})
	defer b.Close()

	ctx := context.Background()
	errcs := []<-chan error{holdFlush(b, sink, []float64{-1})}
	for i := 0; i < 3; i++ {
		errcs = append(errcs,
			submit(ctx, b, []float64{float64(i)}, false),
			submit(ctx, b, []float64{float64(10 + i)}, true))
	}
	waitFor(t, "group to queue", func() bool { return b.Metrics().Enqueued == 7 })
	close(sink.gate)
	waitAll(t, errcs...)

	adds, subs, calls := sink.snapshot()
	if len(adds) != 4 || len(subs) != 3 || calls != 3 {
		t.Fatalf("adds=%v subs=%v in %d calls, want 4 adds and 3 subs in 3 calls", adds, subs, calls)
	}
	for _, v := range subs {
		if v < 10 {
			t.Fatalf("add value %v leaked into the sub stream", v)
		}
	}
}

// sliceSink records AddBatches/SubBatches groups, proving the batcher
// prefers the zero-copy SliceSink path when the sink offers it.
type sliceSink struct {
	*recSink
	groups [][]int // lengths of the slices in each AddBatches call
}

func (s *sliceSink) AddBatches(batches [][]float64) {
	var lens []int
	for _, xs := range batches {
		lens = append(lens, len(xs))
		s.recSink.AddBatch(xs)
	}
	s.mu.Lock()
	s.groups = append(s.groups, lens)
	s.mu.Unlock()
}

func (s *sliceSink) SubBatches(batches [][]float64) {
	for _, xs := range batches {
		s.recSink.SubBatch(xs)
	}
}

// TestSliceSinkZeroCopyPath checks that requests queued behind a held
// flush arrive in the next flush as one AddBatches call carrying the
// request slices unconcatenated.
func TestSliceSinkZeroCopyPath(t *testing.T) {
	sink := &sliceSink{recSink: gatedSink()}
	b := batch.New(sink, batch.Options{QueueLen: 16, MaxBatch: 64})
	defer b.Close()

	errcs := []<-chan error{holdFlush(b, sink.recSink, seq(0, 2))}
	for i := 1; i <= 3; i++ {
		errcs = append(errcs, submit(context.Background(), b, seq(10*i, 2), false))
	}
	waitFor(t, "group to queue", func() bool { return b.Metrics().Enqueued == 4 })
	close(sink.gate)
	waitAll(t, errcs...)

	sink.mu.Lock()
	groups := sink.groups
	sink.mu.Unlock()
	if len(groups) != 1 || !slices.Equal(groups[0], []int{2, 2, 2}) {
		t.Fatalf("want one AddBatches group of three 2-value slices, got %v", groups)
	}
	if m := b.Metrics(); m.Flushes != 2 || m.DrainFlushes != 2 {
		t.Fatalf("want the held flush plus one drain flush, got %+v", m)
	}
}

// TestCloseDrainsEverythingAdmitted parks a full queue of requests behind
// a held flush, then closes: every admitted request must complete with
// nil (its values applied) and post-Close submissions must fail with
// ErrClosed.
func TestCloseDrainsEverythingAdmitted(t *testing.T) {
	const reqs = 32
	sink := gatedSink()
	b := batch.New(sink, batch.Options{QueueLen: reqs - 1, MaxBatch: 1 << 20})

	errcs := []<-chan error{holdFlush(b, sink, seq(0, 1))}
	for i := 1; i < reqs; i++ {
		errcs = append(errcs, submit(context.Background(), b, seq(i, 1), false))
	}
	waitFor(t, "all requests admitted", func() bool { return b.Metrics().Enqueued == reqs })
	closed := make(chan struct{})
	go func() { b.Close(); close(closed) }()
	// The queue is full, so until Close stops admission a probe is shed
	// with ErrQueueFull and leaves nothing behind.
	waitFor(t, "Close to stop admission", func() bool {
		return b.Add(context.Background(), []float64{1}) == batch.ErrClosed
	})
	close(sink.gate)
	<-closed
	waitAll(t, errcs...)

	adds, _, _ := sink.snapshot()
	if len(adds) != reqs {
		t.Fatalf("sink saw %d values, want %d", len(adds), reqs)
	}
	m := b.Metrics()
	if m.DrainFlushes != m.Flushes || m.QueueDepth != 0 || m.FlushedRequests != reqs {
		t.Fatalf("drain metrics inconsistent: %+v", m)
	}
	if err := b.Add(context.Background(), []float64{1}); err != batch.ErrClosed {
		t.Fatalf("post-Close Add: got %v, want ErrClosed", err)
	}
	// Close is idempotent.
	b.Close()
}

// TestEmptyBatchIsNoOp: zero-length submissions complete immediately
// without touching the queue or the sink.
func TestEmptyBatchIsNoOp(t *testing.T) {
	sink := &recSink{}
	b := batch.New(sink, batch.Options{})
	defer b.Close()
	if err := b.Add(context.Background(), nil); err != nil {
		t.Fatalf("empty Add: %v", err)
	}
	if m := b.Metrics(); m.Enqueued != 0 {
		t.Fatalf("empty Add was enqueued: %+v", m)
	}
}

// TestSubmitZeroAlloc asserts the steady-state request path — enqueue,
// flush hand-off, reply — allocates nothing: items and their reply
// channels recycle through a pool, and the single-request flush path
// hands the caller's slice straight to the sink.
func TestSubmitZeroAlloc(t *testing.T) {
	var total float64
	sink := sinkFunc(func(xs []float64) {
		for _, v := range xs {
			total += v
		}
	})
	b := batch.New(sink, batch.Options{QueueLen: 8, MaxBatch: 1})
	defer b.Close()
	ctx := context.Background()
	xs := []float64{1, 2, 3, 4}
	for i := 0; i < 100; i++ { // warm the pools
		if err := b.Add(ctx, xs); err != nil {
			t.Fatal(err)
		}
	}
	best := math.Inf(1)
	for try := 0; try < 3 && best > 0; try++ {
		best = math.Min(best, testing.AllocsPerRun(200, func() {
			if err := b.Add(ctx, xs); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if best > 0 {
		t.Fatalf("submit path allocates %.2f objects per request, want 0", best)
	}
	_ = total
}

// sinkFunc adapts a function to Sink (adds only; subs are a test bug).
type sinkFunc func(xs []float64)

func (f sinkFunc) AddBatch(xs []float64) { f(xs) }
func (f sinkFunc) SubBatch(xs []float64) { panic("unexpected SubBatch") }

// TestMetricsInvariantsUnderLoad hammers the batcher from several
// goroutines while a reader takes snapshots, asserting on every single
// snapshot the invariants documented on Metrics. Under -race this is
// also the torn-counter regression test: with per-field atomics a
// snapshot could observe flushes ahead of enqueues.
func TestMetricsInvariantsUnderLoad(t *testing.T) {
	s, err := shard.New(shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := batch.New(s, batch.Options{QueueLen: 8, MaxBatch: 64, Flushers: 2})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				xs := make([]float64, 1+r.Intn(8))
				for i := range xs {
					xs[i] = r.NormFloat64()
				}
				err := b.Add(context.Background(), xs)
				if err != nil && err != batch.ErrQueueFull {
					t.Errorf("Add: %v", err)
					return
				}
			}
		}(g)
	}

	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		m := b.Metrics()
		if m.FlushedRequests > m.Enqueued {
			t.Fatalf("snapshot shows more flushed requests (%d) than enqueued (%d)", m.FlushedRequests, m.Enqueued)
		}
		if m.FlushedValues > m.EnqueuedValues {
			t.Fatalf("snapshot shows more flushed values (%d) than enqueued (%d)", m.FlushedValues, m.EnqueuedValues)
		}
		if got := m.Enqueued - m.FlushedRequests; m.QueueDepth != got || m.QueueDepth < 0 {
			t.Fatalf("QueueDepth %d != Enqueued-FlushedRequests %d", m.QueueDepth, got)
		}
		if m.SizeFlushes+m.DrainFlushes != m.Flushes {
			t.Fatalf("flush causes don't sum: %+v", m)
		}
		var hist int64
		for _, c := range m.SizeHist {
			hist += c
		}
		if hist != m.Flushes {
			t.Fatalf("size histogram total %d != flushes %d", hist, m.Flushes)
		}
	}
	close(stop)
	wg.Wait()
	b.Close()
}

// TestConcurrentSnapshotsNeverDropOrDoubleCount races flushes against
// sink snapshots: Sum() may observe any admitted prefix mid-run, but
// once the batcher is closed the final sum must be bit-identical to
// parsum.Sum over exactly the accepted multiset — nothing dropped,
// nothing applied twice.
func TestConcurrentSnapshotsNeverDropOrDoubleCount(t *testing.T) {
	s, err := shard.New(shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	b := batch.New(s, batch.Options{QueueLen: 4, MaxBatch: 32, Flushers: 2})

	const workers, perWorker = 4, 200
	accepted := make([][]float64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < perWorker; i++ {
				xs := make([]float64, 1+r.Intn(6))
				for j := range xs {
					xs[j] = math.Ldexp(r.Float64()-0.5, r.Intn(40)-20)
				}
				for {
					err := b.Add(context.Background(), xs)
					if err == nil {
						accepted[g] = append(accepted[g], xs...)
						break
					}
					if err != batch.ErrQueueFull {
						t.Errorf("Add: %v", err)
						return
					}
					time.Sleep(20 * time.Microsecond)
				}
			}
		}(g)
	}
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for i := 0; i < 50; i++ {
			_ = s.Sum() // must race cleanly with flushes
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	b.Close()
	<-snapDone

	var all []float64
	for _, a := range accepted {
		all = append(all, a...)
	}
	want := parsum.Sum(all)
	got := s.Sum()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("final sum %g (%x) != parsum.Sum over accepted multiset %g (%x)",
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if !oracle.Faithful(all, got) {
		t.Fatalf("final sum %g is not even faithful for the accepted multiset", got)
	}
}

// TestContextAbandonStillApplies: a caller that gives up waiting gets
// ctx.Err(), but its admitted batch is still applied exactly once. The
// request waits behind a held flush, so it is still queued when its
// caller gives up.
func TestContextAbandonStillApplies(t *testing.T) {
	sink := gatedSink()
	b := batch.New(sink, batch.Options{QueueLen: 4, MaxBatch: 1 << 20})
	defer b.Close()

	held := holdFlush(b, sink, []float64{1})
	ctx, cancel := context.WithCancel(context.Background())
	errc := submit(ctx, b, []float64{42}, false)
	waitFor(t, "admission", func() bool { return b.Metrics().Enqueued == 2 })
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("abandoned Add: got %v, want context.Canceled", err)
	}
	close(sink.gate)
	waitAll(t, held)
	waitFor(t, "abandoned batch to flush", func() bool { return b.Metrics().FlushedRequests == 2 })
	adds, _, _ := sink.snapshot()
	if len(adds) != 2 || adds[1] != 42 {
		t.Fatalf("abandoned batch not applied exactly once: %v", adds)
	}
}
