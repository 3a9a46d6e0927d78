package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"parsum/internal/gen"
	"parsum/internal/oracle"
)

// smokeConfig is the real code path on tiny inputs and short phases.
func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{
		Workload: workload,
		Seed:     7,
		Measure:  500 * time.Millisecond,
		Warmup:   50 * time.Millisecond,
		Trace:    trace,
		Pool:     1 << 15,
		Setups:   2,
		Rungs:    5 * time.Millisecond,
		Workdir:  t.TempDir(),
	}
}

// seams are the per-layer metrics a traced run of each workload must
// measure (non-zero), beyond the replay rungs every traced run measures.
var seams = map[string][]string{
	"keyed-ingest": {"sumdclient.op_us", "net.transport_us", "sumdsrv.handler_us.add.p50",
		"sumdsrv.handler_us.sub.p50", "sumdsrv.handler_us.sum.p50"},
	"durable-reducer": {"sumdclient.op_us", "net.transport_us", "sumdsrv.handler_us.add.p50",
		"batch.requests_per_flush", "batch.values_per_flush", "batch.deadline_share", "batch.flush_us",
		"shard.apply_us", "wal.commit_us", "wal.fsyncs_per_op", "wal.bytes_per_value", "recovery_rps"},
	"replicated-keyed": {"sumdclient.op_us", "net.transport_us", "sumdsrv.handler_us.keyed_partial.p50",
		"proxy.handler_us.p50", "proxy.leg_us.p50", "proxy.fanout_overhead_us"},
}

var rungMetrics = []string{"accum.ns_per_value", "accum.round_us", "accum.tax_vs_naive",
	"baseline.naive_ns_per_value", "core.merge_us", "core.speedup_nproc", "keyed.add_us", "keyed.sum_us",
	"keyed.import_us", "wal.append_commit_us", "codec.marshal_us", "codec.merge_us", "proxy.envelope_us",
	"ring.replicas_ns"}

// TestSmoke runs every workload, untraced and traced, through the same
// code path as a full run, and checks that verification passes and that
// the metrics are measured.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := smokeConfig(t, w.name, trace)
				if trace {
					cfg.Spans = cfg.Workdir + "/spans.json"
				}
				rep, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 {
					t.Fatalf("correct=%t failed=%d errors=%q", rep.Correct, rep.Failed, rep.Errors)
				}
				want := []string{"setup_s", "rss_peak_mib", "throughput_vps", "op_p50_us", "op_p99_us"}
				if trace {
					want = append(append(want[2:], rungMetrics...), seams[w.name]...)
				}
				for _, name := range want {
					if v := rep.Metrics[name]; !(v > 0) {
						t.Errorf("metric %s = %v, want > 0", name, v)
					}
				}
				if !trace {
					return
				}
				data, err := os.ReadFile(cfg.Spans)
				if err != nil {
					t.Fatal(err)
				}
				var spans []Span
				if err := json.Unmarshal(data, &spans); err != nil {
					t.Fatal(err)
				}
				if len(spans) == 0 {
					t.Fatal("traced run wrote no spans")
				}
			})
		}
	}
}

// scripted replays a fixed op list.
type scripted []op

func (s *scripted) next() op {
	o := (*s)[0]
	*s = (*s)[1:]
	return o
}

// TestCheckerFiresOnCorruptModel drives a real sumd through the load
// path, corrupts the connection's model, and expects the next read to
// be reported as a mismatch — and the run as incorrect.
func TestCheckerFiresOnCorruptModel(t *testing.T) {
	pool := gen.New(gen.Config{Dist: gen.Random, N: 4096, Delta: genDelta, Seed: 3}).Slice()
	b := newBlocks(pool, 1024)
	cfg := smokeConfig(t, "keyed-ingest", false)
	sys, err := startKeyedIngest(&cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.discard()
	if err := sys.waitReady(); err != nil {
		t.Fatal(err)
	}
	m := newModel(b)
	gen := &scripted{{kind: opAdd, key: "k", block: 0}, {kind: opRead, key: "k"}, {kind: opRead, key: "k"}}
	c := &svcConn{cl: newLoadClient(sys.target, nil), gen: gen, m: m}
	ctx := context.Background()
	if o := c.step(ctx, nil); o.failed {
		t.Fatalf("add: %v", o.err)
	}
	if o := c.step(ctx, nil); o.failed {
		t.Fatalf("read before corruption: %v", o.err)
	}
	m.add("k", 1, 1, false) // the model now expects a write that never happened
	o := c.step(ctx, nil)
	if !o.mismatch || !o.failed {
		t.Fatalf("corrupted model: outcome %+v, want a mismatch", o)
	}
	rep := &report{Correct: true}
	rep.count(&phase{ops: 1, failed: 1, mismatches: 1, firstErr: o.err})
	if rep.Correct {
		t.Fatal("a mismatch left the report correct")
	}
}

func TestModelMatchesOracle(t *testing.T) {
	pool := gen.New(gen.Config{Dist: gen.Random, N: 8 * 256, Delta: genDelta, Seed: 5}).Slice()
	b := newBlocks(pool, 256)
	m := newModel(b)
	m.add("a", 0, 4, false)
	m.add("a", 2, 1, true)
	var want []float64
	want = append(want, b.block(0)...)
	want = append(want, b.block(1)...)
	want = append(want, b.block(3)...)
	exact := oracle.Sum(want)
	if err := m.check("a", exact, true); err != nil {
		t.Fatal(err)
	}
	if err := m.check("a", math.Nextafter(exact, math.Inf(1)), true); err == nil {
		t.Fatal("a wrong sum passed the check")
	}
	if err := m.check("b", 0, true); err == nil {
		t.Fatal("a phantom key passed the check")
	}
	if err := m.check("b", 0, false); err != nil {
		t.Fatal(err)
	}
	m.taint("a")
	if err := m.check("a", 1, true); err != nil {
		t.Fatalf("a tainted key was checked: %v", err)
	}
}

// TestGeneratorsAreSeeded pins that an op sequence depends only on the
// seed and connection, which the replay rungs rely on.
func TestGeneratorsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		if w.gen == nil {
			continue
		}
		a, b, c := w.gen(1, 0, 64), w.gen(1, 0, 64), w.gen(2, 0, 64)
		same, differ := true, false
		for i := 0; i < 200; i++ {
			x, y, z := a.next(), b.next(), c.next()
			same = same && x == y
			differ = differ || x != z
		}
		if !same || !differ {
			t.Errorf("%s: same seed equal=%t, other seed differs=%t", w.name, same, differ)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the code and BENCHMARK.json
// naming the same workloads and metrics.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.ReplaceAll(workloadNames(), ", ", ","); got != want {
		t.Errorf("workloads: BENCHMARK.json %s, code %s", got, want)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: %d in BENCHMARK.json, %d in code", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, code %+v", i, got, d)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", d.name, got.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: %d in BENCHMARK.json, %d in code", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := bj.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, code %+v", i, got, d)
		}
	}
}
