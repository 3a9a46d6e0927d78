// Unit tests for the batcher: drain-and-flush group commit (made
// deterministic by a gated flush function that holds one flush open
// while the next group queues behind it, so no test depends on timing),
// MaxBatch splitting a backlog into size flushes, bounded-queue
// rejection with untouched state, drain-on-Close, a flush's error
// reaching every request of its group, the zero-allocation enqueue hot
// path, and the consistency invariants of the metrics snapshot under
// concurrency.
package batch_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"parsum"
	"parsum/internal/batch"
	"parsum/internal/keyed"
	"parsum/internal/oracle"
	"parsum/internal/shard"
)

// recorder is a flush function that records a copy of every group it is
// handed, in call order, and returns errs[i] from call i (nil past the
// end of errs).
type recorder struct {
	mu    sync.Mutex
	calls []batch.Group
	errs  []error

	gate    chan struct{} // when non-nil, every call waits until it is closed
	entered chan struct{} // when non-nil, every call signals here first
}

// gatedRecorder returns a recorder whose calls park until the test
// closes gate. entered is buffered past any test's call count, so
// signalling never blocks a flush.
func gatedRecorder() *recorder {
	return &recorder{gate: make(chan struct{}), entered: make(chan struct{}, 64)}
}

func (r *recorder) flush(g *batch.Group) error {
	if r.entered != nil {
		r.entered <- struct{}{}
	}
	if r.gate != nil {
		<-r.gate
	}
	cp := batch.Group{}
	for _, xs := range g.Add {
		cp.Add = append(cp.Add, slices.Clone(xs))
	}
	for _, xs := range g.Sub {
		cp.Sub = append(cp.Sub, slices.Clone(xs))
	}
	for _, kb := range g.AddKeyed {
		cp.AddKeyed = append(cp.AddKeyed, keyed.Batch{Key: kb.Key, Values: slices.Clone(kb.Values)})
	}
	for _, kb := range g.SubKeyed {
		cp.SubKeyed = append(cp.SubKeyed, keyed.Batch{Key: kb.Key, Values: slices.Clone(kb.Values)})
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, cp)
	if i := len(r.calls) - 1; i < len(r.errs) {
		return r.errs[i]
	}
	return nil
}

// snapshot returns every plain added and deleted value, in call order,
// and the number of calls.
func (r *recorder) snapshot() (adds, subs []float64, calls int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, g := range r.calls {
		adds = append(adds, slices.Concat(g.Add...)...)
		subs = append(subs, slices.Concat(g.Sub...)...)
	}
	return adds, subs, len(r.calls)
}

// callLens returns the number of plain values in every call, in call
// order.
func (r *recorder) callLens() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	lens := make([]int, len(r.calls))
	for i, g := range r.calls {
		lens[i] = len(slices.Concat(g.Add...)) + len(slices.Concat(g.Sub...))
	}
	return lens
}

// applyTo returns a flush function that applies each group's plain
// slices to s.
func applyTo(s *shard.Sharded) func(*batch.Group) error {
	return func(g *batch.Group) error {
		s.AddBatches(g.Add)
		if len(g.Sub) > 0 {
			s.SubBatches(g.Sub)
		}
		return nil
	}
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

// submitKeyed is submit for a keyed request.
func submitKeyed(ctx context.Context, b *batch.Batcher, key string, xs []float64, sub bool) <-chan error {
	errc := make(chan error, 1)
	go func() {
		if sub {
			errc <- b.SubKeyed(ctx, key, xs)
		} else {
			errc <- b.AddKeyed(ctx, key, xs)
		}
	}()
	return errc
}

// holdFlush submits xs and returns once the flusher is parked inside the
// gated flush with it. Until the gate opens, everything submitted later
// waits in the queue and forms the next flush group.
func holdFlush(b *batch.Batcher, rec *recorder, xs []float64) <-chan error {
	errc := submit(context.Background(), b, xs, false)
	<-rec.entered
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
// empties the queue (cause drain). Each group is one flush call, and
// every Add returns only after its flush completed (group commit).
func TestSizeFlushCoalesces(t *testing.T) {
	rec := gatedRecorder()
	b := batch.New(rec.flush, batch.Options{QueueLen: 16, MaxBatch: 8})
	defer b.Close()

	errcs := []<-chan error{holdFlush(b, rec, seq(0, 2))}
	for i := 1; i <= 9; i++ {
		errcs = append(errcs, submit(context.Background(), b, seq(10*i, 2), false))
	}
	waitFor(t, "backlog to queue", func() bool { return b.Metrics().Enqueued == 10 })
	close(rec.gate)
	waitAll(t, errcs...)

	if got, want := rec.callLens(), []int{2, 8, 8, 2}; !slices.Equal(got, want) {
		t.Fatalf("flush call sizes %v, want %v", got, want)
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
	rec := &recorder{}
	b := batch.New(rec.flush, batch.Options{QueueLen: 4, MaxBatch: 1 << 20})
	defer b.Close()

	if err := b.Add(context.Background(), seq(0, 3)); err != nil {
		t.Fatalf("Add: %v", err)
	}
	adds, _, calls := rec.snapshot()
	if calls != 1 || len(adds) != 3 {
		t.Fatalf("got %d calls with %d values, want 1 with 3", calls, len(adds))
	}
	if m := b.Metrics(); m.DrainFlushes != 1 || m.SizeFlushes != 0 {
		t.Fatalf("want exactly one drain flush, got %+v", m)
	}
}

// TestLoneRequestsApplyInOrder: successive lone requests each flush on
// their own, and the flush function sees them in submission order.
func TestLoneRequestsApplyInOrder(t *testing.T) {
	rec := &recorder{}
	b := batch.New(rec.flush, batch.Options{QueueLen: 4, MaxBatch: 1 << 20})
	defer b.Close()

	for _, lo := range []int{100, 200, 300} {
		if err := b.Add(context.Background(), seq(lo, 2)); err != nil {
			t.Fatalf("Add(%d): %v", lo, err)
		}
	}
	rec.mu.Lock()
	var firsts []float64
	for _, g := range rec.calls {
		firsts = append(firsts, g.Add[0][0])
	}
	rec.mu.Unlock()
	if len(firsts) != 3 || firsts[0] != 100 || firsts[1] != 200 || firsts[2] != 300 {
		t.Fatalf("flush calls began with %v, want [100 200 300]", firsts)
	}
	if m := b.Metrics(); m.DrainFlushes != 3 || m.Flushes != 3 {
		t.Fatalf("want 3 drain flushes, got %+v", m)
	}
}

// TestRejectLeavesStateUntouched fills the bounded queue behind a
// blocked flush and asserts the overflowing request fails fast with
// ErrQueueFull, mutates nothing, and is invisible to the flush function
// forever —
// the exactness half of the 429 contract.
func TestRejectLeavesStateUntouched(t *testing.T) {
	rec := gatedRecorder()
	b := batch.New(rec.flush, batch.Options{QueueLen: 2, MaxBatch: 1})
	defer b.Close()

	ctx := context.Background()
	results := make(chan error, 3)
	go func() { results <- b.Add(ctx, []float64{1}) }()
	<-rec.entered // flusher is now blocked inside the flush holding request 1

	go func() { results <- b.Add(ctx, []float64{2}) }()
	go func() { results <- b.Add(ctx, []float64{3}) }()
	// Depth 3: request 1 is admitted-but-unflushed (its flush is held
	// open) and requests 2 and 3 fill the two queue slots.
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

	close(rec.gate) // release the flush; everything admitted must complete
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted Add failed: %v", err)
		}
	}
	waitFor(t, "drain", func() bool { return b.Metrics().QueueDepth == 0 })
	adds, _, _ := rec.snapshot()
	sum := 0.0
	for _, v := range adds {
		sum += v
	}
	if len(adds) != 3 || sum != 6 {
		t.Fatalf("flushes saw %v, want exactly the admitted values {1,2,3}", adds)
	}
}

// TestSubSplitsFromAdds queues insertions and deletions behind a held
// flush so they form one group, and asserts the batcher splits that
// group into its Add and Sub lists, with nothing crossing over.
func TestSubSplitsFromAdds(t *testing.T) {
	rec := gatedRecorder()
	b := batch.New(rec.flush, batch.Options{QueueLen: 16, MaxBatch: 64})
	defer b.Close()

	ctx := context.Background()
	errcs := []<-chan error{holdFlush(b, rec, []float64{-1})}
	for i := 0; i < 3; i++ {
		errcs = append(errcs,
			submit(ctx, b, []float64{float64(i)}, false),
			submit(ctx, b, []float64{float64(10 + i)}, true))
	}
	waitFor(t, "group to queue", func() bool { return b.Metrics().Enqueued == 7 })
	close(rec.gate)
	waitAll(t, errcs...)

	adds, subs, calls := rec.snapshot()
	if len(adds) != 4 || len(subs) != 3 || calls != 2 {
		t.Fatalf("adds=%v subs=%v in %d calls, want 4 adds and 3 subs in 2 calls", adds, subs, calls)
	}
	for _, v := range subs {
		if v < 10 {
			t.Fatalf("add value %v leaked into the sub stream", v)
		}
	}
}

// TestSliceSinkZeroCopyPath checks that requests queued behind a held
// flush arrive in the next flush as one Group carrying the request
// slices unconcatenated, ready for one SliceSink.AddBatches call.
func TestSliceSinkZeroCopyPath(t *testing.T) {
	rec := gatedRecorder()
	b := batch.New(rec.flush, batch.Options{QueueLen: 16, MaxBatch: 64})
	defer b.Close()

	errcs := []<-chan error{holdFlush(b, rec, seq(0, 2))}
	for i := 1; i <= 3; i++ {
		errcs = append(errcs, submit(context.Background(), b, seq(10*i, 2), false))
	}
	waitFor(t, "group to queue", func() bool { return b.Metrics().Enqueued == 4 })
	close(rec.gate)
	waitAll(t, errcs...)

	rec.mu.Lock()
	var lens []int
	for _, xs := range rec.calls[1].Add {
		lens = append(lens, len(xs))
	}
	rec.mu.Unlock()
	if !slices.Equal(lens, []int{2, 2, 2}) {
		t.Fatalf("want the second flush to carry three 2-value slices, got %v", lens)
	}
	if m := b.Metrics(); m.Flushes != 2 || m.DrainFlushes != 2 {
		t.Fatalf("want the held flush plus one drain flush, got %+v", m)
	}
}

// TestFourKindsShareOneFlush queues an add, a sub, a keyed add and a
// keyed sub behind a held flush: all four must reach the flush function
// in one call, each in its own list of the Group.
func TestFourKindsShareOneFlush(t *testing.T) {
	rec := gatedRecorder()
	b := batch.New(rec.flush, batch.Options{QueueLen: 16, MaxBatch: 64})
	defer b.Close()

	ctx := context.Background()
	errcs := []<-chan error{holdFlush(b, rec, []float64{1})}
	errcs = append(errcs,
		submit(ctx, b, []float64{2}, false),
		submit(ctx, b, []float64{3}, true),
		submitKeyed(ctx, b, "a", []float64{4}, false),
		submitKeyed(ctx, b, "b", []float64{5}, true))
	waitFor(t, "group to queue", func() bool { return b.Metrics().Enqueued == 5 })
	close(rec.gate)
	waitAll(t, errcs...)

	rec.mu.Lock()
	calls := rec.calls
	rec.mu.Unlock()
	if len(calls) != 2 {
		t.Fatalf("%d flush calls, want the held one plus one for all four kinds", len(calls))
	}
	g := calls[1]
	want := batch.Group{
		Add:      [][]float64{{2}},
		Sub:      [][]float64{{3}},
		AddKeyed: []keyed.Batch{{Key: "a", Values: []float64{4}}},
		SubKeyed: []keyed.Batch{{Key: "b", Values: []float64{5}}},
	}
	if !reflect.DeepEqual(g, want) {
		t.Fatalf("second flush got %+v, want %+v", g, want)
	}
	if m := b.Metrics(); m.KeyedFlushedRequests != 2 || m.FlushedRequests != 5 {
		t.Fatalf("flush ledger %+v, want 5 requests of which 2 keyed", m)
	}
}

// TestFlushErrorReachesEveryRequest: the error a flush function returns
// is the reply of every request in its group, whatever their kind, and
// the next group completes with nil.
func TestFlushErrorReachesEveryRequest(t *testing.T) {
	errCommit := errors.New("journal commit failed")
	rec := gatedRecorder()
	rec.errs = []error{nil, errCommit}
	b := batch.New(rec.flush, batch.Options{QueueLen: 16, MaxBatch: 64})
	defer b.Close()

	ctx := context.Background()
	held := holdFlush(b, rec, []float64{1})
	failed := []<-chan error{
		submit(ctx, b, []float64{2}, false),
		submit(ctx, b, []float64{3}, true),
		submitKeyed(ctx, b, "k", []float64{4}, false),
	}
	waitFor(t, "group to queue", func() bool { return b.Metrics().Enqueued == 4 })
	close(rec.gate)
	waitAll(t, held)
	for i, errc := range failed {
		if err := <-errc; !errors.Is(err, errCommit) {
			t.Fatalf("request %d of the failed flush: got %v, want %v", i, err, errCommit)
		}
	}
	if err := b.Add(ctx, []float64{5}); err != nil {
		t.Fatalf("request after the failed flush: %v", err)
	}
	if m := b.Metrics(); m.Flushes != 3 || m.FlushedRequests != 5 || m.QueueDepth != 0 {
		t.Fatalf("a failed flush must still be counted as flushed: %+v", m)
	}
}

// TestCloseDrainsEverythingAdmitted parks a full queue of requests behind
// a held flush, then closes: every admitted request must complete with
// nil (its values applied) and post-Close submissions must fail with
// ErrClosed.
func TestCloseDrainsEverythingAdmitted(t *testing.T) {
	const reqs = 32
	rec := gatedRecorder()
	b := batch.New(rec.flush, batch.Options{QueueLen: reqs - 1, MaxBatch: 1 << 20})

	errcs := []<-chan error{holdFlush(b, rec, seq(0, 1))}
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
	close(rec.gate)
	<-closed
	waitAll(t, errcs...)

	adds, _, _ := rec.snapshot()
	if len(adds) != reqs {
		t.Fatalf("flushes saw %d values, want %d", len(adds), reqs)
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
// without touching the queue or the flush function.
func TestEmptyBatchIsNoOp(t *testing.T) {
	rec := &recorder{}
	b := batch.New(rec.flush, batch.Options{})
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
// channels recycle through a pool, and each flusher reuses one Group.
func TestSubmitZeroAlloc(t *testing.T) {
	var total float64
	flush := func(g *batch.Group) error {
		for _, xs := range g.Add {
			for _, v := range xs {
				total += v
			}
		}
		return nil
	}
	b := batch.New(flush, batch.Options{QueueLen: 8, MaxBatch: 1})
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
	b := batch.New(applyTo(s), batch.Options{QueueLen: 8, MaxBatch: 64, Flushers: 2})

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
	b := batch.New(applyTo(s), batch.Options{QueueLen: 4, MaxBatch: 32, Flushers: 2})

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
	rec := gatedRecorder()
	b := batch.New(rec.flush, batch.Options{QueueLen: 4, MaxBatch: 1 << 20})
	defer b.Close()

	held := holdFlush(b, rec, []float64{1})
	ctx, cancel := context.WithCancel(context.Background())
	errc := submit(ctx, b, []float64{42}, false)
	waitFor(t, "admission", func() bool { return b.Metrics().Enqueued == 2 })
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("abandoned Add: got %v, want context.Canceled", err)
	}
	close(rec.gate)
	waitAll(t, held)
	waitFor(t, "abandoned batch to flush", func() bool { return b.Metrics().FlushedRequests == 2 })
	adds, _, _ := rec.snapshot()
	if len(adds) != 2 || adds[1] != 42 {
		t.Fatalf("abandoned batch not applied exactly once: %v", adds)
	}
}
