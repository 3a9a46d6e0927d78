package main

// Exact verification. Every request batch is a fixed block of the seeded
// value pool, and each block's exact sum is computed once by the math/big
// oracle. A connection's model is then a running math/big sum of the
// blocks the service acknowledged, per key — an implementation that
// shares no code with the summation engines it checks. Keys are disjoint
// per connection and an ack means the write is applied, so every read a
// connection makes has exactly one correct answer.

import (
	"fmt"
	"math"
	"math/big"
	"runtime"
	"sync"

	"parsum/internal/oracle"
)

// exactPrec is internal/oracle's precision: exact for any sum of up to
// 2^60 doubles.
const exactPrec = 2200

// blocks is the value pool cut into request-sized batches, with each
// block's exact sum.
type blocks struct {
	size int
	vals []float64
	sums []*big.Float
}

func newBlocks(pool []float64, size int) *blocks {
	n := len(pool) / size
	b := &blocks{size: size, vals: pool[:n*size], sums: make([]*big.Float, n)}
	parallelFor(n, func(i int) { b.sums[i] = oracle.SumBig(b.block(i)) })
	return b
}

func (b *blocks) n() int { return len(b.sums) }

func (b *blocks) block(i int) []float64 { return b.vals[i*b.size : (i+1)*b.size] }

// span returns k consecutive blocks starting at block i as one slice.
func (b *blocks) span(i, k int) []float64 { return b.vals[i*b.size : (i+k)*b.size] }

// parallelFor runs f(0..n-1) on GOMAXPROCS goroutines.
func parallelFor(n int, f func(i int)) {
	p := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += p {
				f(i)
			}
		}(w)
	}
	wg.Wait()
}

// oracleSum is the correctly rounded exact sum of xs, computed on
// GOMAXPROCS goroutines.
func oracleSum(xs []float64) float64 {
	const chunk = 1 << 16
	parts := make([]*big.Float, (len(xs)+chunk-1)/chunk)
	parallelFor(len(parts), func(i int) {
		parts[i] = oracle.SumBig(xs[i*chunk : min((i+1)*chunk, len(xs))])
	})
	s := new(big.Float).SetPrec(exactPrec)
	for _, p := range parts {
		s.Add(s, p)
	}
	f, _ := s.Float64()
	return f
}

// keyModel is one key's expected state. A key whose write failed is
// tainted: the write may or may not have landed, so its reads are no
// longer checkable.
type keyModel struct {
	sum     *big.Float
	tainted bool
}

// model is one connection's expected service state: per-key sums for
// keyed workloads, the global sum ("" key) for un-keyed ones.
type model struct {
	b    *blocks
	keys map[string]*keyModel
}

func newModel(b *blocks) *model { return &model{b: b, keys: make(map[string]*keyModel)} }

func (m *model) key(k string) *keyModel {
	km := m.keys[k]
	if km == nil {
		km = &keyModel{sum: new(big.Float).SetPrec(exactPrec)}
		m.keys[k] = km
	}
	return km
}

// add records an acknowledged write of blocks [first, first+count),
// negated for a retraction.
func (m *model) add(k string, first, count int, sub bool) {
	km := m.key(k)
	for i := first; i < first+count; i++ {
		if sub {
			km.sum.Sub(km.sum, m.b.sums[i])
		} else {
			km.sum.Add(km.sum, m.b.sums[i])
		}
	}
}

// taint marks k unverifiable after a failed write.
func (m *model) taint(k string) { m.key(k).tainted = true }

// check compares a read of key k (found reports whether the service knew
// the key) with the model. It returns nil for a match or an unverifiable
// key, and a description of the mismatch otherwise.
func (m *model) check(k string, got float64, found bool) error {
	km := m.keys[k]
	var want float64
	if km != nil {
		want, _ = km.sum.Float64()
	}
	switch {
	case km != nil && km.tainted:
		return nil
	case found != (km != nil):
		return fmt.Errorf("key %q: service found=%t, model has key=%t", k, found, km != nil)
	case found && math.Float64bits(got) != math.Float64bits(want):
		return fmt.Errorf("key %q: service bits %016x, exact %016x", k, math.Float64bits(got), math.Float64bits(want))
	}
	return nil
}

// mergeGlobal sums the "" key of every model, reporting false when any is
// tainted.
func mergeGlobal(ms []*model) (float64, bool) {
	s := new(big.Float).SetPrec(exactPrec)
	for _, m := range ms {
		if km := m.keys[""]; km != nil {
			if km.tainted {
				return 0, false
			}
			s.Add(s, km.sum)
		}
	}
	f, _ := s.Float64()
	return f, true
}
