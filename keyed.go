package parsum

import "parsum/internal/keyed"

// KeyedOptions configures NewKeyed; the zero value is ready to use
// (dense engine, one partition per P). See keyed.Options for field
// documentation.
type KeyedOptions = keyed.Options

// KeyedBatch is one keyed ingestion unit: a key and the values bound
// for its accumulator.
type KeyedBatch = keyed.Batch

// KeySum is one entry of a whole-store keyed snapshot.
type KeySum = keyed.KeySum

// KeyPartial is one key's exact partial sum as an engine wire envelope —
// the JSON-friendly unit of the keyed exchange; see Keyed.ExportPartials.
type KeyPartial = keyed.KeyPartial

// MaxKeyLen bounds key length for every keyed operation.
const MaxKeyLen = keyed.MaxKeyLen

// Keyed is the multi-key exact aggregation store: a concurrent map from
// string keys to exact accumulators, each key's sum as exact as Sum over
// that key's surviving multiset. Because exact summation is a
// commutative group, the per-key partials form a state-based CRDT:
// stores that exchange exported partials (ExportRange/ImportMerge)
// converge to bit-identical per-key sums regardless of exchange order.
// All methods are safe for concurrent use.
type Keyed struct {
	s *keyed.Store
}

// NewKeyed returns an empty keyed store. It errors when opt.Engine is
// unknown, lacks the Streaming and DeterministicParallel capabilities,
// or cannot marshal wire partials (keyed state must be exchangeable).
func NewKeyed(opt KeyedOptions) (*Keyed, error) {
	s, err := keyed.New(opt)
	if err != nil {
		return nil, err
	}
	return &Keyed{s: s}, nil
}

// Engine returns the registry name of the engine backing every key.
func (k *Keyed) Engine() string { return k.s.Engine() }

// Partitions returns the number of key stripes.
func (k *Keyed) Partitions() int { return k.s.Partitions() }

// Invertible reports whether the backing engine supports exact deletion.
func (k *Keyed) Invertible() bool { return k.s.Invertible() }

// Add accumulates every element of xs exactly into key's accumulator.
// An empty xs still registers the key at exact +0. Panics on an empty
// or over-length key (a programming error at this layer).
func (k *Keyed) Add(key string, xs []float64) { k.s.Add(key, xs) }

// Sub deletes every element of xs exactly from key's accumulator — the
// group inverse of Add. Panics when the engine is not Invertible.
func (k *Keyed) Sub(key string, xs []float64) { k.s.Sub(key, xs) }

// Sum returns the correctly rounded exact sum of key's multiset and
// whether the key exists.
func (k *Keyed) Sum(key string) (float64, bool) { return k.s.Sum(key) }

// Len returns the number of live keys.
func (k *Keyed) Len() int { return k.s.Len() }

// Keys returns every live key in sorted order.
func (k *Keyed) Keys() []string { return k.s.Keys() }

// KeysRange returns the sorted live keys x with lo ≤ x < hi; hi == ""
// means no upper bound.
func (k *Keyed) KeysRange(lo, hi string) []string { return k.s.KeysRange(lo, hi) }

// Snapshot returns the whole store as sorted (key, correctly rounded
// exact sum) pairs — element-identical for any two stores holding the
// same per-key multisets.
func (k *Keyed) Snapshot() []KeySum { return k.s.Snapshot() }

// Reset empties the store.
func (k *Keyed) Reset() { k.s.Reset() }

// DeleteRange removes every key x with lo ≤ x < hi (hi == "" unbounded)
// and returns how many were removed — pair with ExportRange to rebalance
// a key range onto another store.
func (k *Keyed) DeleteRange(lo, hi string) int { return k.s.DeleteRange(lo, hi) }

// AddKeyedBatches accumulates a group of keyed batches with one lock
// acquisition per touched partition — the batch.KeyedSink flush entry
// point. It groups bs by sorting it in place; the batches' values are
// untouched.
func (k *Keyed) AddKeyedBatches(bs []KeyedBatch) { k.s.AddKeyedBatches(bs) }

// SubKeyedBatches deletes a group of keyed batches, grouped (and bs
// reordered) like AddKeyedBatches. Panics when the engine is not
// Invertible.
func (k *Keyed) SubKeyedBatches(bs []KeyedBatch) { k.s.SubKeyedBatches(bs) }

// Merge folds every key of o into k; o is unchanged. Mixing engines
// panics, as in Accumulator.Merge.
func (k *Keyed) Merge(o *Keyed) { k.s.Merge(o.s) }

// ExportAll returns the whole store as one keyed binary envelope — the
// anti-entropy payload a replica ships to a peer's ImportMerge.
func (k *Keyed) ExportAll() ([]byte, error) { return k.s.ExportAll() }

// ExportRange returns every key x with lo ≤ x < hi (hi == "" unbounded)
// as one keyed binary envelope, entries sorted by key; exports of equal
// state are byte-identical.
func (k *Keyed) ExportRange(lo, hi string) ([]byte, error) { return k.s.ExportRange(lo, hi) }

// ImportMerge decodes a keyed envelope and folds every entry in,
// creating missing keys. Malformed or engine-mismatched payloads return
// an error and leave the store bit-for-bit unchanged; the whole envelope
// is validated before anything is applied. Importing the same set of
// exported partials in any order converges to bit-identical per-key
// sums.
func (k *Keyed) ImportMerge(data []byte) error { return k.s.ImportMerge(data) }

// ExportPartials returns the keys in [lo, hi) as per-key engine wire
// envelopes sorted by key — the JSON-friendly form of ExportRange; each
// Blob is an ordinary Accumulator wire partial.
func (k *Keyed) ExportPartials(lo, hi string) ([]KeyPartial, error) {
	return k.s.ExportPartials(lo, hi)
}

// MergeKeyPartials folds a set of per-key wire partials in — the push
// half of the JSON keyed exchange, with the same validate-everything-
// first atomicity as ImportMerge.
func (k *Keyed) MergeKeyPartials(ps []KeyPartial) error { return k.s.MergeKeyPartials(ps) }
