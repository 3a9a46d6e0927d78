package proxy_test

// The chaos gauntlet: the whole replicated write path driven through
// seeded fault injectors, then checked against the exact oracle. The
// invariants under test are the system's two promises:
//
//  1. No acked write is lost — every logical write a writer got a 200
//     for is in the final per-key sums.
//  2. After heal + repair, every replica's per-key sum is bit-identical
//     to summing that key's values sequentially (the parsum oracle).
//
// Writers behave like correct clients: one idempotency token per
// logical write, retried until acked. Everything else — drops, resets
// (applied but unacked), 5xx bursts, latency, a mid-run partition — is
// the injectors' business.

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"parsum"
	"parsum/internal/chaos"
	"parsum/internal/proxy"
	"parsum/internal/sumdsrv"
)

func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos gauntlet is seconds-long; skipped in -short")
	}
	cases := []struct {
		name      string
		seed      uint64
		async     bool
		partition bool // partition one backend mid-run, heal before repair
	}{
		{"sync_seed1", 1, false, false},
		{"sync_seed2_partition", 2, false, true},
		{"async_seed3", 3, true, false},
		{"async_seed4_partition", 4, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			runGauntlet(t, tc.seed, tc.async, tc.partition)
		})
	}
}

func runGauntlet(t *testing.T, seed uint64, async, partition bool) {
	opt := sumdsrv.Options{}
	if async {
		opt.Async = true
		opt.QueueLen = 256
		opt.MaxBatch = 64
	}
	f := startFleet(t, 3, opt)
	// Re-arm each backend's injector with a real fault mix. Distinct
	// seeds per backend keep their schedules uncorrelated.
	for i, name := range f.names {
		f.injectors[name] = chaos.New(chaos.Options{
			Seed:     seed*100 + uint64(i),
			PDrop:    0.08,
			PReset:   0.04,
			P5xx:     0.08,
			PLatency: 0.10,
			Latency:  2 * time.Millisecond,
			BurstLen: 2,
		})
	}
	p, hs := newProxy(t, f, func(o *proxy.Options) {
		o.Timeout = 2 * time.Second
		o.BreakerThreshold = 4
		o.BreakerCooldown = 20 * time.Millisecond
		o.ReplayEvery = 10 * time.Millisecond
	})

	const (
		writers         = 4
		writesPerWriter = 20
		keyspace        = 6
		maxRetries      = 300
		retryBackoff    = 2 * time.Millisecond
	)

	// Oracle: every acked write's values, per key. Order is irrelevant —
	// exact summation is commutative.
	var (
		mu     sync.Mutex
		oracle = map[string][]float64{}
	)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writesPerWriter; i++ {
				key := fmt.Sprintf("k%d", (w*writesPerWriter+i)%keyspace)
				// Values with real cancellation so an approximate sum
				// would get the bits wrong.
				xs := []float64{1e16, float64(w) + 0.5, -1e16, float64(i) * 0.0625}
				token := fmt.Sprintf("gauntlet-%d-%d-%d", seed, w, i)
				acked := false
				for try := 0; try < maxRetries; try++ {
					resp := postAdd(t, hs.URL, key, xs, token)
					code := resp.StatusCode
					drain(t, resp)
					if code == http.StatusOK {
						acked = true
						break
					}
					time.Sleep(retryBackoff)
				}
				if !acked {
					t.Errorf("writer %d write %d never acked", w, i)
					return
				}
				mu.Lock()
				oracle[key] = append(oracle[key], xs...)
				mu.Unlock()
			}
		}(w)
	}

	if partition {
		// Cut one backend off mid-ingest; its acked writes ride hints
		// and repair.
		time.Sleep(20 * time.Millisecond)
		f.injectors[f.names[1]].Partition()
		time.Sleep(50 * time.Millisecond)
		f.injectors[f.names[1]].Heal()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesce the faults, heal any partition, and converge.
	for _, name := range f.names {
		f.injectors[name].Quiesce()
		f.injectors[name].Heal()
	}
	// A backend's breaker can still be inside its cooldown right after
	// heal, so a single round may find it "unreachable" — exactly the
	// case the background repair loop handles by running again. Converge
	// the same way: rounds until one comes back clean.
	var stats proxy.RepairStats
	clean := false
	for round := 0; round < 50 && !clean; round++ {
		stats = p.RepairNow(context.Background())
		clean = len(stats.Unreachable) == 0 && stats.Errors == 0
		if !clean {
			time.Sleep(25 * time.Millisecond)
		}
	}
	if !clean {
		t.Fatalf("repair never converged after heal: %+v", stats)
	}

	// Every replica, every key: bit-identical to the exact oracle.
	for key, xs := range oracle {
		want := math.Float64bits(parsum.Sum(xs))
		for _, name := range f.names {
			v, ok, err := f.direct[name].SumKey(context.Background(), key)
			if err != nil || !ok {
				t.Fatalf("%s %s: ok=%t err=%v", name, key, ok, err)
			}
			if got := math.Float64bits(v); got != want {
				t.Errorf("%s %s: bits %016x, want %016x (%d values)", name, key, got, want, len(xs))
			}
		}
	}

	// The injectors did inject: a gauntlet that saw no faults proves
	// nothing.
	var faults int64
	for _, name := range f.names {
		c := f.injectors[name].Counts()
		faults += c.Drops + c.Resets + c.Errs5xx + c.Partitioned
	}
	if faults == 0 {
		t.Error("no faults injected — the gauntlet ran on a calm sea")
	}
}
