package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"parsum"
	"parsum/internal/gen"
	"parsum/internal/sumdsrv"
)

// report is one workload run: the result line plus what the human
// output shows beside it.
type report struct {
	Workload  string
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]float64 // everything measured; the result line carries a subset
	Samples   map[string]int     // sample count behind each latency metric
	SelfTime  []selfRow          // traced runs: where the time goes
	Errors    []string
}

func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.Failed++
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// count folds a phase's ops into the report's totals.
func (r *report) count(p *phase) {
	r.Attempted += p.ops
	r.Failed += p.failed
	if p.mismatches > 0 {
		r.Correct = false
	}
	if p.firstErr != nil && len(r.Errors) < 10 {
		r.Errors = append(r.Errors, p.firstErr.Error())
	}
}

// run executes one workload: set-up (repeated cfg.Setups times), warm-up,
// the measured phase — split into untraced and traced halves when
// tracing — and the final verification.
func run(cfg config) (*report, error) {
	w, ok := lookupWorkload(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	var rec *Recorder
	if cfg.Trace {
		rec = NewRecorder()
	}
	rep := &report{Workload: w.name, Correct: true, Metrics: map[string]float64{}, Samples: map[string]int{}}

	// Input generation is not set-up: it stands in for data the caller
	// already has.
	src := gen.New(gen.Config{Dist: gen.Random, N: int64(bulkArrays * cfg.Pool), Delta: genDelta, Seed: cfg.Seed})
	pool := make([]float64, cfg.Pool)
	src.Fill(pool, 0)

	var (
		conns  []stepper
		models []*model
		sys    *system
		setups []float64
	)
	if w.start == nil {
		arrays := [][]float64{pool}
		for i := 1; i < bulkArrays; i++ {
			a := make([]float64, cfg.Pool)
			src.Fill(a, int64(i*cfg.Pool))
			arrays = append(arrays, a)
		}
		want := make([]float64, len(arrays))
		for i, a := range arrays {
			want[i] = oracleSum(a)
		}
		// Set-up for the library is each array's first, cold call.
		for i, a := range arrays {
			t0 := time.Now()
			v := parsum.Sum(a)
			setups = append(setups, time.Since(t0).Seconds())
			rep.Attempted++
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				rep.fail("array %d: first parsum.Sum bits %016x, exact %016x", i, math.Float64bits(v), math.Float64bits(want[i]))
			}
		}
		conns = []stepper{&bulkConn{arrays: arrays, want: want}}
	} else {
		b := newBlocks(pool, w.batch)
		runtime.GC() // leave input generation's garbage out of the set-up timings
		for i := 0; i < cfg.Setups; i++ {
			t0 := time.Now()
			s, err := w.start(&cfg, rec)
			if err == nil {
				err = s.waitReady()
			}
			if err != nil {
				if s != nil {
					s.discard()
				}
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			if i < cfg.Setups-1 {
				s.discard()
			} else {
				sys = s
			}
		}
		defer sys.discard()
		for c := 0; c < nproc; c++ {
			cl := newLoadClient(sys.target, rec)
			m := newModel(b)
			sc := &svcConn{cl: cl, gen: w.gen(cfg.Seed, c, b.n()), m: m}
			if w.name == "durable-reducer" {
				co, err := cl.NewCombiner("")
				if err != nil {
					return nil, err
				}
				sc.co = co
			}
			conns = append(conns, sc)
			models = append(models, m)
		}
	}

	rep.count(runPhase(conns, cfg.Warmup, nil))
	measure := cfg.Measure
	if cfg.Trace {
		measure /= 2
	}
	untraced := runPhase(conns, measure, nil)
	rep.count(untraced)

	var traced *phase
	var before, after []sumdsrv.StatsResponse
	if cfg.Trace {
		before = statsAll(sys)
		rec.SetOn(true)
		traced = runPhase(conns, measure, rec)
		rec.SetOn(false)
		after = statsAll(sys)
		rep.count(traced)
	}

	recovery := verify(w, sys, models, rep)

	m := rep.Metrics
	m["setup_s"] = median(setups)
	m["rss_peak_mib"] = peakRSSMiB()
	m["throughput_vps"] = untraced.throughput()
	m["op_p50_us"] = percentile(untraced.writes, 50)
	m["op_p99_us"] = percentile(untraced.writes, 99)
	m["read_p50_us"] = percentile(untraced.reads, 50)
	m["read_p99_us"] = percentile(untraced.reads, 99)
	m["op_samples"] = float64(len(untraced.writes))
	m["read_samples"] = float64(len(untraced.reads))
	m["recovery_rps"] = recovery
	m["failed_ratio"] = float64(rep.Failed) / float64(max(rep.Attempted, 1))
	rep.Samples["op_p50_us"], rep.Samples["op_p99_us"] = len(untraced.writes), len(untraced.writes)
	rep.Samples["read_p50_us"], rep.Samples["read_p99_us"] = len(untraced.reads), len(untraced.reads)
	rep.Samples["setup_s"] = len(setups)
	if !cfg.Trace {
		return rep, nil
	}

	spans := rec.Spans()
	for k, v := range layerMetrics(spans, before, after, sys, conns, traced) {
		m[k] = v
	}
	m["trace.overhead_op_p50"] = 100 * (percentile(traced.writes, 50)/m["op_p50_us"] - 1)
	m["trace.overhead_throughput"] = 100 * (1 - traced.throughput()/m["throughput_vps"])
	if err := runRungs(&cfg, pool, m); err != nil {
		return nil, fmt.Errorf("replay rungs: %w", err)
	}
	rep.SelfTime = selfTable(spans)
	if cfg.Spans != "" {
		if err := WriteSpans(cfg.Spans, spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return rep, nil
}

func statsAll(sys *system) []sumdsrv.StatsResponse {
	if sys == nil {
		return nil
	}
	var out []sumdsrv.StatsResponse
	for _, srv := range sys.sumds {
		out = append(out, localStats(srv))
	}
	return out
}

// verify checks the final state exactly and, for durable-reducer,
// restarts the server from its journal and checks the recovered state.
// It returns WAL records replayed per second (0 for other workloads).
func verify(w workload, sys *system, models []*model, rep *report) float64 {
	if sys == nil {
		return 0
	}
	if w.name != "durable-reducer" {
		// Every key on every server: each sumd holds every key (one
		// server, or R=3 replicas over three backends).
		for _, m := range models {
			keys := make([]string, 0, len(m.keys))
			for k := range m.keys {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				for _, srv := range sys.sumds {
					rep.Attempted++
					v, found, err := localSum(srv, k)
					if err == nil {
						err = m.check(k, v, found)
					}
					if err != nil {
						rep.fail("final sweep: %v", err)
					}
				}
			}
		}
		return 0
	}
	want, checkable := mergeGlobal(models)
	if !checkable {
		rep.Errors = append(rep.Errors, "durable-reducer: a write failed, final sums unverifiable")
	}
	check := func(what string, v float64, err error) {
		rep.Attempted++
		switch {
		case err != nil:
			rep.fail("%s: %v", what, err)
		case checkable && math.Float64bits(v) != math.Float64bits(want):
			rep.fail("%s: bits %016x, exact %016x", what, math.Float64bits(v), math.Float64bits(want))
		}
	}
	v, _, err := localSum(sys.sumds[0], "")
	check("final global sum", v, err)

	// Restart: close (draining the batcher, sealing the journal), then
	// time a fresh server replaying the directory.
	sys.close()
	opt := sys.opts[0]
	opt.WrapSink = nil
	t0 := time.Now()
	srv, err := sumdsrv.New(opt)
	took := time.Since(t0)
	if err != nil {
		check("recovery", 0, err)
		return 0
	}
	defer srv.Close()
	v, _, err = localSum(srv, "")
	check("recovered global sum", v, err)
	return float64(srv.Recovery().Records) / took.Seconds()
}

// peakRSSMiB is the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
