// Package batch implements the asynchronous ingestion front-end for the
// aggregation service: a group-commit batcher that sits between request
// handlers and one flush function. Handlers enqueue (key, values,
// reply) items into a bounded queue; a flusher goroutine blocks for one
// request, takes whatever else is already queued without waiting (up to
// MaxBatch values), hands the whole group to the flush function in one
// call and completes every reply with that call's error. Requests that
// arrive while that flush runs form the next group, so the flush itself
// clocks group commit: an idle batcher adds no wait, a busy one
// coalesces exactly what queued up behind the previous flush. When the
// queue is full the enqueue fails fast with ErrQueueFull and the flush
// function never sees the request, so the caller can answer 429 instead
// of blocking the accept loop.
//
// Batching is safe for exactness, not merely for throughput: the state
// behind the flush function is a superaccumulator (a commutative group
// under exact addition), so any coalescing, reordering across flushers,
// or add/sub regrouping the batcher performs yields a final sum
// bit-identical to summing the accepted multiset sequentially. Admission
// is the only observable effect — which is exactly what the reply
// reports: when Add returns, the flush containing xs has run, so any
// subsequent Sum observes the values (group commit), and the error is
// that flush's (nil, or the journal commit failure sumd answers 500).
//
// Every counter lives in one mutex-guarded Metrics struct, updated on
// the enqueue and flush paths and copied out atomically by Metrics(),
// so a snapshot can never report more flushes than enqueues (see the
// invariants on Metrics). The enqueue hot path performs no allocations:
// items are recycled through a sync.Pool, replies travel over pooled
// one-slot channels, and each flusher reuses one Group.
package batch

import (
	"context"
	"errors"
	"sync"
	"time"

	"parsum/internal/keyed"
)

// ErrQueueFull is returned by Add/Sub when the bounded queue is at
// capacity. The batch was not admitted and the flush function never
// sees it; the caller should shed load (HTTP 429) or back off and retry.
var ErrQueueFull = errors.New("batch: queue full")

// ErrClosed is returned by Add/Sub after Close.
var ErrClosed = errors.New("batch: batcher closed")

// Sink is the single-sum accumulator a flush function applies a Group
// to; *parsum.Sharded and *shard.Sharded implement it. sumd's sink also
// implements SliceSink and KeyedSink, and sumdsrv.Options.WrapSink must
// keep all three.
type Sink interface {
	AddBatch(xs []float64)
	SubBatch(xs []float64)
}

// SliceSink applies a Group's plain slices in one call, with no
// concatenation copy; *shard.Sharded and *parsum.Sharded implement it
// under one striped-lock acquisition.
type SliceSink interface {
	AddBatches(batches [][]float64)
	SubBatches(batches [][]float64)
}

// KeyedSink applies a Group's keyed batches in one call; *keyed.Store
// and *parsum.Keyed implement it with one lock hop per touched
// partition.
type KeyedSink interface {
	AddKeyedBatches(batches []keyed.Batch)
	SubKeyedBatches(batches []keyed.Batch)
}

// Group is one flush group split by kind: the plain add and sub slices
// and the keyed add and sub batches of every request in it, each list in
// queue order. The slices alias the requests' values, so a flush
// function must not keep them past its return.
type Group struct {
	Add, Sub           [][]float64
	AddKeyed, SubKeyed []keyed.Batch
}

// Put appends one request to g; a non-empty key makes it a keyed batch.
func (g *Group) Put(key string, xs []float64, sub bool) {
	switch {
	case key != "" && sub:
		g.SubKeyed = append(g.SubKeyed, keyed.Batch{Key: key, Values: xs})
	case key != "":
		g.AddKeyed = append(g.AddKeyed, keyed.Batch{Key: key, Values: xs})
	case sub:
		g.Sub = append(g.Sub, xs)
	default:
		g.Add = append(g.Add, xs)
	}
}

// Len returns the number of requests in g.
func (g *Group) Len() int {
	return len(g.Add) + len(g.Sub) + len(g.AddKeyed) + len(g.SubKeyed)
}

// Reset empties g for reuse. It drops the references to the requests'
// values too, so a reused Group does not pin them.
func (g *Group) Reset() {
	clear(g.Add)
	clear(g.Sub)
	clear(g.AddKeyed)
	clear(g.SubKeyed)
	g.Add, g.Sub = g.Add[:0], g.Sub[:0]
	g.AddKeyed, g.SubKeyed = g.AddKeyed[:0], g.SubKeyed[:0]
}

// Options configures a Batcher. The zero value is usable: queue of 256
// requests, 4096-value flush cap, one flusher.
type Options struct {
	// QueueLen bounds the number of admitted-but-unflushed requests;
	// beyond it Add/Sub fail fast with ErrQueueFull. 0 means 256.
	QueueLen int
	// MaxBatch caps the values one flush takes from the queue; a backlog
	// larger than that splits into several flushes. A single request
	// larger than MaxBatch flushes alone. 0 means 4096.
	MaxBatch int
	// Flushers is the number of concurrent flusher goroutines. More
	// than one trades the single-flusher ordering guarantee for flush
	// parallelism — harmless for exactness (the state is a commutative
	// group) and useful when one goroutine cannot saturate the flush
	// function. 0 means 1.
	Flushers int
}

func (o Options) withDefaults() Options {
	if o.QueueLen <= 0 {
		o.QueueLen = 256
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 4096
	}
	if o.Flushers <= 0 {
		o.Flushers = 1
	}
	return o
}

// item is one admitted request. done is a one-slot reply channel (send,
// never close, so items recycle through the pool). A non-empty key marks
// a keyed request; "" is the single-sum path.
type item struct {
	key    string
	values []float64
	sub    bool
	done   chan error
}

var itemPool = sync.Pool{New: func() any { return &item{done: make(chan error, 1)} }}

// Batcher is the bounded-queue, group-commit ingestion front-end.
// All methods are safe for concurrent use.
type Batcher struct {
	fn   func(*Group) error
	opt  Options
	ch   chan *item
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	// mu guards closed and every counter in m; the enqueue path takes it
	// once (the queue send happens inside, non-blocking), the flush path
	// once per flush.
	mu     sync.Mutex
	closed bool
	m      Metrics
}

// New starts a Batcher that hands every flush group to flush, once per
// flush, and answers each request of the group with flush's error.
// Stop it with Close.
func New(flush func(*Group) error, opt Options) *Batcher {
	opt = opt.withDefaults()
	b := &Batcher{
		fn:   flush,
		opt:  opt,
		ch:   make(chan *item, opt.QueueLen),
		stop: make(chan struct{}),
	}
	b.wg.Add(opt.Flushers)
	for i := 0; i < opt.Flushers; i++ {
		go b.runFlusher()
	}
	return b
}

// Options returns the resolved configuration.
func (b *Batcher) Options() Options { return b.opt }

// Metrics returns a consistent snapshot of every counter (see the
// invariants documented on Metrics). It allocates nothing.
func (b *Batcher) Metrics() Metrics {
	b.mu.Lock()
	m := b.m
	b.mu.Unlock()
	return m
}

// Add submits xs for exact accumulation. It returns once the flush
// containing xs has run, with that flush's error (nil: applied);
// ErrQueueFull when the queue was at capacity (nothing admitted); or
// ctx's error if the caller gave up waiting — in that last case the
// batch was admitted and will still be flushed. An empty xs is a no-op.
func (b *Batcher) Add(ctx context.Context, xs []float64) error {
	return b.submit(ctx, "", xs, false)
}

// Sub submits xs for exact deletion — identical admission and completion
// semantics to Add. The flush function must support deletion for the
// values ever flushed here (the server gates non-invertible engines
// upstream).
func (b *Batcher) Sub(ctx context.Context, xs []float64) error {
	return b.submit(ctx, "", xs, true)
}

func (b *Batcher) submit(ctx context.Context, key string, xs []float64, sub bool) error {
	it, err := b.enqueue(key, xs, sub)
	if it == nil {
		return err
	}
	select {
	case err := <-it.done:
		it.key, it.values = "", nil
		itemPool.Put(it)
		return err
	case <-ctx.Done():
		// Admitted but the caller stopped waiting: the flusher will
		// still flush the batch and send the reply; the item is left to
		// the GC since its reply was never consumed.
		return ctx.Err()
	}
}

// enqueue admits one request, or fails fast. It returns a nil item on
// every failure and on empty unkeyed batches (err == nil then); an empty
// keyed batch is still admitted — registering the key is state.
func (b *Batcher) enqueue(key string, xs []float64, sub bool) (*item, error) {
	if len(xs) == 0 && key == "" {
		return nil, nil
	}
	it := itemPool.Get().(*item)
	it.key, it.values, it.sub = key, xs, sub
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		it.key, it.values = "", nil
		itemPool.Put(it)
		return nil, ErrClosed
	}
	select {
	case b.ch <- it:
		b.m.Enqueued++
		b.m.EnqueuedValues += int64(len(xs))
		b.m.QueueDepth++
		if key != "" {
			b.m.KeyedEnqueued++
		}
		b.mu.Unlock()
		return it, nil
	default:
		b.m.Rejected++
		b.mu.Unlock()
		it.key, it.values = "", nil
		itemPool.Put(it)
		return nil, ErrQueueFull
	}
}

// Close stops admission, flushes everything already admitted, and waits
// for the flushers to exit. Safe to call more than once.
func (b *Batcher) Close() {
	b.once.Do(func() {
		b.mu.Lock()
		b.closed = true
		b.mu.Unlock()
		// No enqueue can be in flight past the closed check now (the
		// check and the send share b.mu), so the flushers see a frozen
		// queue.
		close(b.stop)
		b.wg.Wait()
	})
}

// runFlusher blocks for one request, takes whatever else is already
// queued without waiting, stopping once the group holds MaxBatch values,
// and flushes the group. It never lingers for more traffic: requests
// that arrive during a flush's apply and journal commit form the next
// group.
func (b *Batcher) runFlusher() {
	defer b.wg.Done()
	var pending []*item
	var g Group
	for {
		select {
		case it := <-b.ch:
			pending = append(pending, it)
		case <-b.stop:
			b.flush(drainQueued(b.ch, pending), &g, false)
			return
		}
		n := len(pending[0].values)
	fill:
		for n < b.opt.MaxBatch {
			select {
			case it := <-b.ch:
				pending = append(pending, it)
				n += len(it.values)
			default:
				break fill
			}
		}
		b.flush(pending, &g, n >= b.opt.MaxBatch)
		pending = pending[:0]
	}
}

// drainQueued moves everything already sitting in the queue into pending
// without blocking. With several flushers draining concurrently each
// item still lands in exactly one flush.
func drainQueued(ch <-chan *item, pending []*item) []*item {
	for {
		select {
		case it := <-ch:
			pending = append(pending, it)
		default:
			return pending
		}
	}
}

// flush hands one coalesced group to the flush function in g (the
// flusher's reused Group), records the counters under one lock, and then
// completes every reply with the function's error. Replies come last, so
// by the time a caller's Add returns, both the state behind the function
// and the metrics already reflect its batch. capped reports that the
// group stopped at MaxBatch values rather than emptying the queue.
func (b *Batcher) flush(items []*item, g *Group, capped bool) {
	if len(items) == 0 {
		return
	}
	nv := 0
	for _, it := range items {
		nv += len(it.values)
		g.Put(it.key, it.values, it.sub)
	}
	keyedN := len(g.AddKeyed) + len(g.SubKeyed)
	start := time.Now()
	err := b.fn(g)
	dur := time.Since(start)
	g.Reset()

	b.mu.Lock()
	b.m.Flushes++
	b.m.KeyedFlushedRequests += int64(keyedN)
	b.m.FlushedRequests += int64(len(items))
	b.m.FlushedValues += int64(nv)
	b.m.QueueDepth -= int64(len(items))
	b.m.FlushNs += dur.Nanoseconds()
	b.m.SizeHist[bucketIdx(SizeBuckets[:], float64(nv))]++
	b.m.LatencyHist[bucketIdx(LatencyBuckets[:], dur.Seconds())]++
	if capped {
		b.m.SizeFlushes++
	} else {
		b.m.DrainFlushes++
	}
	b.mu.Unlock()

	for _, it := range items {
		it.done <- err
	}
}
