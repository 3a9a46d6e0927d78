package batch

// SizeBuckets are the upper bounds (inclusive, in values per flush) of
// the flush-size histogram; an implicit +Inf bucket follows the last.
var SizeBuckets = [...]float64{1, 8, 64, 256, 1024, 4096, 16384}

// LatencyBuckets are the upper bounds (inclusive, in seconds) of the
// flush-latency histogram; an implicit +Inf bucket follows the last.
var LatencyBuckets = [...]float64{100e-6, 500e-6, 1e-3, 5e-3, 25e-3, 100e-3, 1}

// Metrics is a flat, allocation-free snapshot of the batcher's counters.
// Every field is updated under one mutex inside the Batcher and copied
// out under the same mutex, so a snapshot is internally consistent: the
// invariants below hold in every snapshot, not just quiescent ones.
//
//	Flushes == SizeFlushes + DrainFlushes
//	FlushedRequests <= Enqueued
//	FlushedValues   <= EnqueuedValues
//	QueueDepth      == Enqueued - FlushedRequests  (and >= 0)
//
// Histogram fields hold per-bucket (non-cumulative) counts; the
// Prometheus exposition layer accumulates them.
type Metrics struct {
	Enqueued       int64 // requests admitted to the queue
	EnqueuedValues int64 // float64s admitted to the queue
	Rejected       int64 // requests refused because the queue was full
	KeyedEnqueued  int64 // subset of Enqueued that carried a key

	Flushes         int64 // sink flushes performed
	FlushedRequests int64 // requests completed by a flush
	FlushedValues   int64 // float64s handed to the sink
	SizeFlushes     int64 // flushes that stopped at MaxBatch values
	DrainFlushes    int64 // flushes that took everything queued (Close's included)

	KeyedFlushedRequests int64 // subset of FlushedRequests that carried a key

	QueueDepth int64 // requests admitted but not yet flushed
	FlushNs    int64 // cumulative wall time inside sink calls

	SizeHist    [len(SizeBuckets) + 1]int64    // flush sizes, per bucket
	LatencyHist [len(LatencyBuckets) + 1]int64 // flush latencies, per bucket
}

// bucketIdx returns the index of the first bucket whose upper bound
// admits v, or len(bounds) for the +Inf bucket.
func bucketIdx(bounds []float64, v float64) int {
	for i, b := range bounds {
		if v <= b {
			return i
		}
	}
	return len(bounds)
}
