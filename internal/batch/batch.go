// Package batch implements the asynchronous ingestion front-end for the
// aggregation service: a group-commit batcher that sits between request
// handlers and a sharded exact accumulator. Handlers enqueue
// (values, reply) items into a bounded queue; a flusher goroutine blocks
// for one request, takes whatever else is already queued without
// waiting (up to MaxBatch values), applies the whole group to the sink
// in one AddBatch / SubBatch call and completes every reply. Requests
// that arrive while that flush runs form the next group, so the flush
// itself clocks group commit: an idle batcher adds no wait, a busy one
// coalesces exactly what queued up behind the previous flush. When the
// queue is full the enqueue fails fast with ErrQueueFull and the
// accumulator is untouched, so the caller can answer 429 instead of
// blocking the accept loop.
//
// Batching is safe for exactness, not merely for throughput: the sink is
// a superaccumulator (a commutative group under exact addition), so any
// coalescing, reordering across flushers, or add/sub regrouping the
// batcher performs yields a final sum bit-identical to summing the
// accepted multiset sequentially. Admission is the only observable
// effect — which is exactly what the reply channel reports: when Add
// returns nil, the values are already folded into the sink, so any
// subsequent Sum observes them (group commit).
//
// Every counter lives in one mutex-guarded Metrics struct, updated on
// the enqueue and flush paths and copied out atomically by Metrics(),
// so a snapshot can never report more flushes than enqueues (see the
// invariants on Metrics). The enqueue hot path performs no allocations:
// items are recycled through a sync.Pool and replies travel over pooled
// one-slot channels.
package batch

import (
	"context"
	"errors"
	"sync"
	"time"

	"parsum/internal/keyed"
)

// ErrQueueFull is returned by Add/Sub when the bounded queue is at
// capacity. The batch was not admitted and the sink is untouched; the
// caller should shed load (HTTP 429) or back off and retry.
var ErrQueueFull = errors.New("batch: queue full")

// ErrClosed is returned by Add/Sub after Close.
var ErrClosed = errors.New("batch: batcher closed")

// Sink is the exact accumulator the batcher flushes into.
// *parsum.Sharded implements it.
type Sink interface {
	AddBatch(xs []float64)
	SubBatch(xs []float64)
}

// SliceSink is an optional Sink extension: a sink that can apply a
// whole flush group as a list of slices in one call spares the batcher
// the concatenation copy on multi-request flushes. *shard.Sharded and
// *parsum.Sharded implement it (one striped-lock acquisition for the
// whole group). The batcher detects it at construction and prefers it
// automatically.
type SliceSink interface {
	AddBatches(batches [][]float64)
	SubBatches(batches [][]float64)
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
	// parallelism — harmless for exactness (the sink is a commutative
	// group) and useful when one goroutine cannot saturate the sink.
	// 0 means 1.
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
// a keyed request bound for the KeyedSink; "" is the single-sum path.
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
	sink   Sink
	slices SliceSink // non-nil when sink also implements SliceSink
	keyed  KeyedSink // non-nil when sink also implements KeyedSink
	opt    Options
	ch     chan *item
	stop   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once

	// mu guards closed and every counter in m; the enqueue path takes it
	// once (the queue send happens inside, non-blocking), the flush path
	// once per flush.
	mu     sync.Mutex
	closed bool
	m      Metrics
}

// New starts a Batcher flushing into sink. Stop it with Close.
func New(sink Sink, opt Options) *Batcher {
	opt = opt.withDefaults()
	b := &Batcher{
		sink: sink,
		opt:  opt,
		ch:   make(chan *item, opt.QueueLen),
		stop: make(chan struct{}),
	}
	b.slices, _ = sink.(SliceSink)
	b.keyed, _ = sink.(KeyedSink)
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

// Add submits xs for exact accumulation. It returns nil only after the
// flush containing xs has completed, ErrQueueFull when the queue was at
// capacity (state untouched), or ctx's error if the caller gave up
// waiting — in that last case the batch was admitted and will still be
// applied. An empty xs is a no-op.
func (b *Batcher) Add(ctx context.Context, xs []float64) error {
	return b.submit(ctx, "", xs, false)
}

// Sub submits xs for exact deletion — identical admission and completion
// semantics to Add. The sink must support SubBatch for the values ever
// flushed here (the server gates non-invertible engines upstream).
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
		// still apply the batch and send the reply; the item is left to
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
	var sc scratch
	for {
		select {
		case it := <-b.ch:
			pending = append(pending, it)
		case <-b.stop:
			b.flush(drainQueued(b.ch, pending), &sc, false)
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
		b.flush(pending, &sc, n >= b.opt.MaxBatch)
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

// scratch is one flusher's reusable flush buffers: slice lists for the
// SliceSink path, concatenation buffers for the plain Sink fallback,
// batch lists and an item filter for the keyed path.
type scratch struct {
	addS, subS [][]float64
	add, sub   []float64
	addK, subK []keyed.Batch
	plain      []*item
}

// flush applies one coalesced group to the sink — one AddBatches /
// SubBatches call when the sink is a SliceSink (no copying), otherwise
// one concatenated AddBatch and/or SubBatch — records the counters
// under one lock, and then completes every reply. Replies come last,
// so by the time a caller's Add returns, both the sink and the metrics
// already reflect its batch. capped reports that the group stopped at
// MaxBatch values rather than emptying the queue.
func (b *Batcher) flush(items []*item, sc *scratch, capped bool) {
	if len(items) == 0 {
		return
	}
	nv := 0
	keyedN := 0
	for _, it := range items {
		nv += len(it.values)
		if it.key != "" {
			keyedN++
		}
	}
	start := time.Now()
	plain := items
	if keyedN > 0 {
		// Keyed requests exist only when the sink is a KeyedSink (AddKeyed
		// gates on it before enqueueing). Split them out, apply the whole
		// keyed share in one AddKeyedBatches/SubKeyedBatches pair — at most
		// one lock hop per touched store partition — and leave the plain
		// items for the usual paths below.
		ps, addK, subK := sc.plain[:0], sc.addK[:0], sc.subK[:0]
		for _, it := range items {
			switch {
			case it.key == "":
				ps = append(ps, it)
			case it.sub:
				subK = append(subK, keyed.Batch{Key: it.key, Values: it.values})
			default:
				addK = append(addK, keyed.Batch{Key: it.key, Values: it.values})
			}
		}
		if len(addK) > 0 {
			b.keyed.AddKeyedBatches(addK)
		}
		if len(subK) > 0 {
			b.keyed.SubKeyedBatches(subK)
		}
		// Drop the value references before reusing the buffers: the
		// caller-owned slices must not stay pinned past the flush.
		for i := range addK {
			addK[i] = keyed.Batch{}
		}
		for i := range subK {
			subK[i] = keyed.Batch{}
		}
		sc.addK, sc.subK = addK, subK
		plain = ps
	}
	switch {
	case len(plain) == 0:
		// All-keyed flush: nothing for the single-sum sink.
	case len(plain) == 1:
		// Single-request flush: hand the batch straight to the sink.
		if plain[0].sub {
			b.sink.SubBatch(plain[0].values)
		} else {
			b.sink.AddBatch(plain[0].values)
		}
	case b.slices != nil:
		addS, subS := sc.addS[:0], sc.subS[:0]
		for _, it := range plain {
			if it.sub {
				subS = append(subS, it.values)
			} else {
				addS = append(addS, it.values)
			}
		}
		if len(addS) > 0 {
			b.slices.AddBatches(addS)
		}
		if len(subS) > 0 {
			b.slices.SubBatches(subS)
		}
		// Drop the value references before pooling the headers: the
		// caller-owned slices must not stay pinned past the flush.
		for i := range addS {
			addS[i] = nil
		}
		for i := range subS {
			subS[i] = nil
		}
		sc.addS, sc.subS = addS, subS
	default:
		add, sub := sc.add[:0], sc.sub[:0]
		for _, it := range plain {
			if it.sub {
				sub = append(sub, it.values...)
			} else {
				add = append(add, it.values...)
			}
		}
		if len(add) > 0 {
			b.sink.AddBatch(add)
		}
		if len(sub) > 0 {
			b.sink.SubBatch(sub)
		}
		sc.add, sc.sub = add, sub
	}
	if keyedN > 0 {
		for i := range plain {
			plain[i] = nil
		}
		sc.plain = plain[:0]
	}
	dur := time.Since(start)

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
		it.done <- nil
	}
}
