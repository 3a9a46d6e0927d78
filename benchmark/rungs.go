package main

// Replay rungs: each layer alone, driven in-process with the workloads'
// seeded inputs and op sequences, so a layer's cost can be read without
// the layers above it.

import (
	"os"
	"runtime"
	"time"

	"parsum"
	"parsum/internal/baseline"
	"parsum/internal/keyed"
	"parsum/internal/ring"
	"parsum/internal/wal"
)

// sink keeps measured results alive so the compiler cannot drop a call.
var sink float64

// reps calls f until budget has passed, at least minN and at most maxN
// times, and returns what f measured each time, in nanoseconds.
func reps(budget time.Duration, minN, maxN int, f func(i int) time.Duration) []float64 {
	var out []float64
	start := time.Now()
	for i := 0; i < maxN && (i < minN || time.Since(start) < budget); i++ {
		out = append(out, float64(f(i)))
	}
	return out
}

func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// runRungs measures every replay rung on pool (the seed's first
// Pool values — bulk-sum's first array) and stores the results in m.
func runRungs(cfg *config, pool []float64, m map[string]float64) error {
	budget := cfg.Rungs
	nproc := runtime.GOMAXPROCS(0)
	n := float64(len(pool))
	b1024 := len(pool) / 1024
	block := func(i, size int) []float64 { i %= len(pool) / size; return pool[i*size : (i+1)*size] }

	// Kernel: one thread, bulk AddSlice, against the naive loop.
	accNs := median(reps(budget, 3, 50, func(int) time.Duration {
		acc := parsum.NewAccumulator()
		return timed(func() { acc.AddSlice(pool) })
	}))
	naiveNs := median(reps(budget, 3, 200, func(int) time.Duration {
		return timed(func() { sink = baseline.Naive(pool) })
	}))
	m["accum.ns_per_value"] = accNs / n
	m["baseline.naive_ns_per_value"] = naiveNs / n
	m["accum.tax_vs_naive"] = accNs / naiveNs

	acc := parsum.NewAccumulator()
	m["accum.round_us"] = median(reps(budget, 100, 20000, func(i int) time.Duration {
		acc.AddSlice(block(i, 1024))
		return timed(func() { sink = acc.Round() })
	})) / 1e3

	// Merge nproc partials, as SumParallel's reducer does, then round.
	parts := make([]*parsum.Accumulator, nproc)
	for i := range parts {
		parts[i] = parsum.NewAccumulator()
		parts[i].AddSlice(pool[i*len(pool)/nproc : (i+1)*len(pool)/nproc])
	}
	into := parsum.NewAccumulator()
	m["core.merge_us"] = median(reps(budget, 20, 20000, func(int) time.Duration {
		into.Reset()
		return timed(func() {
			for _, p := range parts {
				into.Merge(p)
			}
			sink = into.Round()
		})
	})) / 1e3

	// Parallel speedup, alternating which side runs first.
	var speedups []float64
	reps(2*budget, 5, 50, func(i int) time.Duration {
		seq := func() time.Duration { return timed(func() { sink = parsum.Sum(pool) }) }
		par := func() time.Duration {
			return timed(func() { sink = parsum.SumParallel(pool, parsum.Options{Workers: nproc}) })
		}
		var ts, tp time.Duration
		if i%2 == 0 {
			ts, tp = seq(), par()
		} else {
			tp, ts = par(), seq()
		}
		speedups = append(speedups, float64(ts)/float64(tp))
		return 0
	})
	q1, q2, q3 := quartiles(speedups)
	m["core.speedup_nproc"] = q2
	m["core.speedup_nproc_spread"] = (q3 - q1) / q2

	// Keyed store: keyed-ingest's op sequence straight into parsum.Keyed.
	store, err := parsum.NewKeyed(parsum.KeyedOptions{})
	if err != nil {
		return err
	}
	gens := make([]*ingestGen, nproc)
	for c := range gens {
		gens[c] = newIngestGen(cfg.Seed, c, b1024)
	}
	var adds, sums []float64
	reps(budget, 100, 1<<20, func(i int) time.Duration {
		o := gens[i%nproc].next()
		switch o.kind {
		case opAdd:
			adds = append(adds, float64(timed(func() { store.Add(o.key, block(o.block, 1024)) })))
		case opSub:
			adds = append(adds, float64(timed(func() { store.Sub(o.key, block(o.block, 1024)) })))
		case opRead:
			sums = append(sums, float64(timed(func() { sink, _ = store.Sum(o.key) })))
		}
		return 0
	})
	m["keyed.add_us"] = median(adds) / 1e3
	m["keyed.sum_us"] = median(sums) / 1e3

	// The proxy's per-write envelope (keyed.New + Add + ExportAll, as
	// proxy.envelope builds it) and a backend's ImportMerge of it, on
	// replicated-keyed's op sequence.
	rg := newReplicatedGen(cfg.Seed, 0, len(pool)/256)
	backend, err := keyed.New(keyed.Options{})
	if err != nil {
		return err
	}
	var envs, imports []float64
	var rungErr error
	reps(budget, 100, 1<<20, func(int) time.Duration {
		o := rg.next()
		for o.kind != opAdd {
			o = rg.next()
		}
		var env []byte
		envs = append(envs, float64(timed(func() {
			st, err := keyed.New(keyed.Options{Engine: "dense", Partitions: 1})
			if err != nil {
				rungErr = err
				return
			}
			st.Add(o.key, block(o.block, 256))
			env, err = st.ExportAll()
			if err != nil {
				rungErr = err
			}
		})))
		imports = append(imports, float64(timed(func() {
			if err := backend.ImportMerge(env); err != nil {
				rungErr = err
			}
		})))
		return 0
	})
	if rungErr != nil {
		return rungErr
	}
	m["proxy.envelope_us"] = median(envs) / 1e3
	m["keyed.import_us"] = median(imports) / 1e3

	// Codec: durable-reducer's combiner partials.
	sh, err := parsum.NewSharded(parsum.ShardedOptions{})
	if err != nil {
		return err
	}
	var marshals, merges []float64
	reps(budget, 20, 1<<20, func(i int) time.Duration {
		a := parsum.NewAccumulator()
		a.AddSlice(block(i, partialBlocks*1024))
		var blob []byte
		marshals = append(marshals, float64(timed(func() { blob, err = a.MarshalBinary() })))
		if err == nil {
			merges = append(merges, float64(timed(func() { err = sh.MergeBytes(blob) })))
		}
		if err != nil {
			rungErr = err
		}
		return 0
	})
	if rungErr != nil {
		return rungErr
	}
	m["codec.marshal_us"] = median(marshals) / 1e3
	m["codec.merge_us"] = median(merges) / 1e3

	// Journal: one 1024-value batch appended and committed, fsync always.
	dir, err := os.MkdirTemp(cfg.Workdir, "walrung-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.PolicyAlways})
	if err != nil {
		return err
	}
	commits := reps(budget, 20, 5000, func(i int) time.Duration {
		return timed(func() {
			log.AppendBatch(block(i, 1024), false)
			if err := log.Commit(); err != nil {
				rungErr = err
			}
		})
	})
	if err := log.Close(); err != nil && rungErr == nil {
		rungErr = err
	}
	if rungErr != nil {
		return rungErr
	}
	m["wal.append_commit_us"] = median(commits) / 1e3

	// Placement: replicas of replicated-keyed's keys on a 3-node ring.
	r, err := ring.New(ring.Options{Nodes: []string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"}})
	if err != nil {
		return err
	}
	keys := connKeys(0, replicatedKeys)
	const calls = 100000
	d := timed(func() {
		for i := 0; i < calls; i++ {
			_ = r.Replicas(keys[i%len(keys)], 3)
		}
	})
	m["ring.replicas_ns"] = float64(d) / calls
	return nil
}
