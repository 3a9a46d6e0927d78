// Package keyed implements the multi-key exact aggregation store: a
// hash-partitioned map from string keys to exact accumulators, layered
// over the same engine seam as internal/shard. Where a Sharded holds one
// global sum striped across writers, a Store holds millions of
// independent sums — per-user balances, per-metric series, per-tenant
// totals — each as exact as the single-sum path: every (key, value)
// ingestion lands in that key's superaccumulator, merges are carry-free,
// and rounding happens once per query.
//
// Exact summation is a commutative group, so a Store's per-key partials
// form a state-based CRDT: two stores that exchange exported partials
// (ExportRange/ImportMerge) converge to bit-identical per-key sums no
// matter the exchange order, because merging partials is exactly adding
// group elements — commutative, associative, and independent of the
// partition of the underlying multiset. That is the anti-entropy
// guarantee a replicated counter service needs, and it is algebraic, not
// scheduling luck.
//
// Mechanically, keys hash (FNV-1a) onto one of N partitions; each
// partition is a mutex-guarded map[string]accumulator whose values are
// recycled through a sync.Pool (the fresh/recycle pattern of
// shard.Sharded), so churn from Reset/DeleteRange does not thrash the
// allocator. Batched ingestion (AddKeyedBatches) sorts a whole flush by
// partition in place and takes each partition lock once — the batcher's
// group-commit flush applies with at most N lock acquisitions however
// many requests it coalesced.
package keyed

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"parsum/internal/core"
	"parsum/internal/engine"
)

// MaxKeyLen bounds key length everywhere — store operations panic beyond
// it (a programming error, like engine mismatches) and the wire decoder
// rejects longer keys before allocating. 4 KiB is far beyond any sane
// metric or tenant identifier while keeping a hostile envelope from
// claiming gigabyte keys.
const MaxKeyLen = 4096

// Options configures a Store; the zero value is ready to use (dense
// engine, one partition per P).
type Options struct {
	// Engine names the registered summation engine backing every key's
	// accumulator; "" means the dense superaccumulator. It must declare
	// Streaming and DeterministicParallel (the capabilities that make
	// partitioned accumulation deterministic) and its accumulators must
	// marshal (partials cross the wire).
	Engine string
	// Partitions is the number of independent key stripes; 0 means
	// GOMAXPROCS. More partitions admit more concurrent writers on
	// disjoint keys; the key→partition map is an internal detail and
	// never crosses the wire.
	Partitions int
}

// Batch is one keyed ingestion unit: a key and the values bound for its
// accumulator. The batcher's keyed flush path carries these.
type Batch struct {
	Key    string
	Values []float64
}

// KeySum is one entry of a whole-store snapshot.
type KeySum struct {
	Key string
	Sum float64
}

// KeyPartial is one key's exact partial as an engine wire envelope
// (engine.MarshalPartial) — the JSON-friendly exchange unit; the binary
// keyed envelope (ExportRange) hoists the engine name and is denser.
type KeyPartial struct {
	Key  string `json:"key"`
	Blob []byte `json:"blob"`
}

// partition is one key stripe: a mutex-guarded key→accumulator map,
// padded so neighbouring partitions do not false-share a cache line.
type partition struct {
	mu sync.Mutex
	m  map[string]engine.Accumulator
	_  [40]byte // Mutex(8) + map(8) + 40 = 56; close enough to a line
}

// Store is the hash-partitioned key→accumulator map. All methods are
// safe for concurrent use. The zero value is not usable; construct with
// New.
type Store struct {
	eng   engine.Engine
	inv   bool
	parts []partition

	accPool sync.Pool // recycled empty accumulators (fresh/recycle)
}

// New returns an empty Store. It errors when the engine is unknown,
// cannot back deterministic partitioned accumulation (needs Streaming and
// DeterministicParallel), or cannot marshal wire partials — a keyed store
// whose state cannot be exchanged would be a silo, not a replica.
func New(opt Options) (*Store, error) {
	name := opt.Engine
	if name == "" {
		name = core.EngineDense
	}
	e, ok := engine.Get(name)
	if !ok {
		return nil, fmt.Errorf("keyed: unknown engine %q (registered: %v)", name, engine.Names())
	}
	if caps := e.Caps(); !caps.Streaming || !caps.DeterministicParallel {
		return nil, fmt.Errorf("keyed: engine %q cannot back a keyed store (needs Streaming and DeterministicParallel; has Streaming=%v DeterministicParallel=%v)",
			name, caps.Streaming, caps.DeterministicParallel)
	}
	if !engine.CanMarshal(e) {
		return nil, fmt.Errorf("keyed: engine %q cannot marshal wire partials", name)
	}
	n := opt.Partitions
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &Store{eng: e, inv: e.Caps().Invertible, parts: make([]partition, n)}
	for i := range s.parts {
		s.parts[i].m = make(map[string]engine.Accumulator)
	}
	return s, nil
}

// Engine returns the name of the backing engine.
func (s *Store) Engine() string { return s.eng.Name() }

// Partitions returns the number of key stripes.
func (s *Store) Partitions() int { return len(s.parts) }

// Invertible reports whether the backing engine supports exact deletion
// (Sub). All the superaccumulator engines do.
func (s *Store) Invertible() bool { return s.inv }

func (s *Store) checkInvertible() {
	if !s.inv {
		panic(fmt.Sprintf("keyed: engine %q is not invertible (no exact deletion)", s.eng.Name()))
	}
}

// checkKey rejects the keys no store operation accepts: empty, or longer
// than MaxKeyLen. Both are programming errors at this layer — the
// network edge validates remote input and answers 400 instead.
func checkKey(key string) {
	if key == "" {
		panic("keyed: empty key")
	}
	if len(key) > MaxKeyLen {
		panic(fmt.Sprintf("keyed: key length %d exceeds MaxKeyLen %d", len(key), MaxKeyLen))
	}
}

// part returns the partition owning key (FNV-1a 64; stable across
// processes, though nothing on the wire depends on it).
func (s *Store) part(key string) *partition { return &s.parts[s.partIndex(key)] }

// partIndex hashes key (FNV-1a) onto its partition's index.
func (s *Store) partIndex(key string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % uint64(len(s.parts)))
}

func (s *Store) fresh() engine.Accumulator {
	if v := s.accPool.Get(); v != nil {
		return v.(engine.Accumulator)
	}
	return s.eng.NewAccumulator()
}

func (s *Store) recycle(a engine.Accumulator) {
	a.Reset()
	s.accPool.Put(a)
}

// acc returns key's accumulator inside p, creating it if absent. Caller
// holds p.mu.
func (s *Store) acc(p *partition, key string) engine.Accumulator {
	a, ok := p.m[key]
	if !ok {
		a = s.fresh()
		p.m[key] = a
	}
	return a
}

// Add accumulates every element of xs exactly into key's accumulator,
// under one partition-lock acquisition. An empty xs still registers the
// key (its exact sum is +0) — presence is part of the state.
func (s *Store) Add(key string, xs []float64) {
	checkKey(key)
	p := s.part(key)
	p.mu.Lock()
	s.acc(p, key).AddSlice(xs)
	p.mu.Unlock()
}

// Sub deletes every element of xs exactly from key's accumulator — the
// group inverse of Add, registering the key if absent (a net deletion is
// a legal group element). Panics when the engine is not Invertible.
func (s *Store) Sub(key string, xs []float64) {
	s.checkInvertible()
	checkKey(key)
	p := s.part(key)
	p.mu.Lock()
	s.acc(p, key).(engine.Inverter).SubSlice(xs)
	p.mu.Unlock()
}

// Sum returns the correctly rounded exact sum of key's multiset and
// whether the key exists. The bits are identical to summing the key's
// surviving values sequentially, whatever the ingestion interleaving.
func (s *Store) Sum(key string) (float64, bool) {
	checkKey(key)
	p := s.part(key)
	p.mu.Lock()
	defer p.mu.Unlock()
	a, ok := p.m[key]
	if !ok {
		return 0, false
	}
	return a.Round(), true
}

// CloneAcc returns a private clone of key's accumulator (and whether
// the key exists). The clone is the caller's group element to mutate
// freely — the anti-entropy repairer diffs donor and replica clones
// (donor − replica) to compute the exact correction partial without
// holding any store lock during the arithmetic.
func (s *Store) CloneAcc(key string) (engine.Accumulator, bool) {
	checkKey(key)
	p := s.part(key)
	p.mu.Lock()
	defer p.mu.Unlock()
	a, ok := p.m[key]
	if !ok {
		return nil, false
	}
	return a.Clone(), true
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	n := 0
	for i := range s.parts {
		p := &s.parts[i]
		p.mu.Lock()
		n += len(p.m)
		p.mu.Unlock()
	}
	return n
}

// Keys returns every live key in sorted order.
func (s *Store) Keys() []string {
	return s.KeysRange("", "")
}

// KeysRange returns the sorted live keys k with lo ≤ k < hi; hi == ""
// means no upper bound. (lo == "" is every key from the start.)
func (s *Store) KeysRange(lo, hi string) []string {
	var keys []string
	for i := range s.parts {
		p := &s.parts[i]
		p.mu.Lock()
		for k := range p.m {
			if k >= lo && (hi == "" || k < hi) {
				keys = append(keys, k)
			}
		}
		p.mu.Unlock()
	}
	sort.Strings(keys)
	return keys
}

// Snapshot returns the whole store as sorted (key, correctly rounded
// exact sum) pairs. It is deterministic in the CRDT sense: two stores
// holding the same per-key multisets produce element-identical snapshots
// (same keys, same bits, same order), regardless of how or in what order
// the state arrived. Per-key values are each internally consistent;
// ingestion may continue concurrently, landing before or after each
// key's read per its partition lock.
func (s *Store) Snapshot() []KeySum {
	var out []KeySum
	for i := range s.parts {
		p := &s.parts[i]
		p.mu.Lock()
		for k, a := range p.m {
			out = append(out, KeySum{Key: k, Sum: a.Round()})
		}
		p.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Reset empties the store, recycling every accumulator.
func (s *Store) Reset() {
	for i := range s.parts {
		p := &s.parts[i]
		p.mu.Lock()
		for k, a := range p.m {
			delete(p.m, k)
			s.recycle(a)
		}
		p.mu.Unlock()
	}
}

// DeleteRange removes every key k with lo ≤ k < hi (hi == "" means no
// upper bound) and returns how many were removed — the local half of a
// key-range rebalance: export the range, ship it, delete it here.
func (s *Store) DeleteRange(lo, hi string) int {
	n := 0
	for i := range s.parts {
		p := &s.parts[i]
		p.mu.Lock()
		for k, a := range p.m {
			if k >= lo && (hi == "" || k < hi) {
				delete(p.m, k)
				s.recycle(a)
				n++
			}
		}
		p.mu.Unlock()
	}
	return n
}

// AddKeyedBatches accumulates a whole group of keyed batches with one
// lock acquisition per touched partition: the group is sorted by
// partition in place, then each partition applies its run under one lock.
// This is the batcher's keyed flush entry point (batch.KeyedSink) — a
// coalesced flush of hundreds of requests costs at most Partitions()
// lock hops and no allocation. The sort reorders bs's headers, never a
// batch's values, and exactness makes the order of applies invisible:
// every value still lands in exactly one key's accumulator.
func (s *Store) AddKeyedBatches(bs []Batch) {
	s.applyGrouped(bs, false)
}

// SubKeyedBatches deletes a whole group of keyed batches, grouped by
// partition like AddKeyedBatches (and likewise reordering bs) — the
// deletion half of the keyed flush entry point. Panics when the engine
// is not Invertible.
func (s *Store) SubKeyedBatches(bs []Batch) {
	s.checkInvertible()
	s.applyGrouped(bs, true)
}

func (s *Store) applyGrouped(bs []Batch, sub bool) {
	if len(bs) == 0 {
		return
	}
	if len(bs) == 1 {
		// A group of one, as every sync write is, needs no grouping.
		if sub {
			s.Sub(bs[0].Key, bs[0].Values)
		} else {
			s.Add(bs[0].Key, bs[0].Values)
		}
		return
	}
	for _, b := range bs {
		checkKey(b.Key)
	}
	// Sort the headers by partition, then take each partition's lock
	// once for its run.
	slices.SortFunc(bs, func(a, b Batch) int { return s.partIndex(a.Key) - s.partIndex(b.Key) })
	for i := 0; i < len(bs); {
		pi := s.partIndex(bs[i].Key)
		p := &s.parts[pi]
		p.mu.Lock()
		for ; i < len(bs) && s.partIndex(bs[i].Key) == pi; i++ {
			a := s.acc(p, bs[i].Key)
			if sub {
				a.(engine.Inverter).SubSlice(bs[i].Values)
			} else {
				a.AddSlice(bs[i].Values)
			}
		}
		p.mu.Unlock()
	}
}

// Merge folds every key of o into s (creating missing keys); o is
// unchanged and remains usable. Both stores must share an engine; mixing
// engines panics like Accumulator.Merge. Merging is the in-process form
// of ImportMerge(o.ExportAll()) and obeys the same CRDT algebra.
func (s *Store) Merge(o *Store) {
	if s == o {
		panic("keyed: Merge of a Store with itself")
	}
	if s.eng.Name() != o.eng.Name() {
		panic(fmt.Sprintf("keyed: engine mismatch in Merge (%s vs %s)", s.eng.Name(), o.eng.Name()))
	}
	for i := range o.parts {
		op := &o.parts[i]
		op.mu.Lock()
		// Clone under o's lock, merge outside it: s.part(k) may collide
		// with a partition of o only when s == o, which is rejected above.
		for k, a := range op.m {
			clone := a.Clone()
			p := s.part(k)
			p.mu.Lock()
			s.acc(p, k).Merge(clone)
			p.mu.Unlock()
		}
		op.mu.Unlock()
	}
}
