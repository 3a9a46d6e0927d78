package batch

// Keyed ingestion through the batcher: AddKeyed/SubKeyed submit
// (key, values) requests into the same bounded queue as Add/Sub, so
// keyed and single-sum traffic share admission control and group
// commit. A flush that coalesced both kinds applies
// the keyed share with one AddKeyedBatches/SubKeyedBatches pair —
// grouped by store partition inside the sink — and the unkeyed share
// through the usual SliceSink path. Exactness is per key: however the
// flusher regroups requests, every value lands in exactly one key's
// superaccumulator, so per-key sums are bit-identical to sequential
// ingestion of each key's multiset.

import (
	"context"
	"errors"
	"fmt"

	"parsum/internal/keyed"
)

// ErrNoKeyedSink is returned by AddKeyed/SubKeyed when the sink passed
// to New does not implement KeyedSink.
var ErrNoKeyedSink = errors.New("batch: sink does not support keyed accumulation")

// KeyedSink is the optional Sink extension for multi-key exact
// aggregation; *keyed.Store (and *parsum.Keyed) implement it. The
// batcher detects it at construction, and AddKeyed/SubKeyed fail fast
// with ErrNoKeyedSink when it is absent.
type KeyedSink interface {
	AddKeyedBatches(batches []keyed.Batch)
	SubKeyedBatches(batches []keyed.Batch)
}

// AddKeyed submits xs for exact accumulation under key. Admission and
// completion semantics match Add: nil means the flush containing the
// batch completed (a subsequent per-key Sum observes it), ErrQueueFull
// means nothing was admitted. An empty xs is NOT a no-op — it registers
// the key at exact +0, mirroring keyed.Store.Add. Invalid keys (empty,
// or longer than keyed.MaxKeyLen) are rejected here with an error, not
// a panic: by the flush there is no caller left to answer to.
func (b *Batcher) AddKeyed(ctx context.Context, key string, xs []float64) error {
	if err := b.checkKeyed(key); err != nil {
		return err
	}
	return b.submit(ctx, key, xs, false)
}

// SubKeyed submits xs for exact deletion under key — the group inverse
// of AddKeyed, with identical admission semantics. The sink must support
// deletion for the values ever flushed here (the server gates
// non-invertible engines upstream, as it does for Sub).
func (b *Batcher) SubKeyed(ctx context.Context, key string, xs []float64) error {
	if err := b.checkKeyed(key); err != nil {
		return err
	}
	return b.submit(ctx, key, xs, true)
}

func (b *Batcher) checkKeyed(key string) error {
	if b.keyed == nil {
		return ErrNoKeyedSink
	}
	if key == "" {
		return fmt.Errorf("batch: empty key")
	}
	if len(key) > keyed.MaxKeyLen {
		return fmt.Errorf("batch: key length %d exceeds limit %d", len(key), keyed.MaxKeyLen)
	}
	return nil
}
