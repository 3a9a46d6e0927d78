package main

import (
	"math"
	"sort"
	"strings"

	"parsum/internal/batch"
	"parsum/internal/sumdsrv"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestMetricTablesMatchBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

// endToEnd is the gated set: what a user of the system sees, steady
// enough from run to run to hold a regression bound. An untraced run's
// result line carries exactly these.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"rss_peak_mib", "MiB", "lower"},
}

// ungated are end-to-end metrics whose run-to-run spread on a shared
// host is wider than any usable bound (README.md, "A/A spread"). Every
// run measures and prints them, saved runs keep them for -compare, and
// a traced run's result line carries them with the per-layer metrics.
var ungated = []metricDef{
	{"throughput_vps", "values/s", "higher"},
	{"op_p50_us", "us", "lower"},
	{"op_p99_us", "us", "lower"},
	{"read_p50_us", "us", "lower"},
	{"read_p99_us", "us", "lower"},
	{"failed_ratio", "ratio", "lower"},
	{"recovery_rps", "records/s", "higher"},
}

// routes are the sumd handlers the workloads reach.
var routes = []string{"add", "sub", "partial", "sum", "keyed_partial"}

// perLayer is what a traced run's result line carries: the ungated
// end-to-end metrics (from its untraced half), then the layers. Seam
// metrics of a layer the workload does not pass through read 0.
var perLayer = func() []metricDef {
	defs := append([]metricDef(nil), ungated...)
	defs = append(defs, []metricDef{
		{"read_samples", "count", "higher"},
		{"op_samples", "count", "higher"},
		{"trace.overhead_op_p50", "%", "lower"},
		{"trace.overhead_throughput", "%", "lower"},
		{"accum.ns_per_value", "ns", "lower"},
		{"accum.round_us", "us", "lower"},
		{"accum.tax_vs_naive", "ratio", "lower"},
		{"baseline.naive_ns_per_value", "ns", "lower"},
		{"core.merge_us", "us", "lower"},
		{"core.speedup_nproc", "ratio", "higher"},
		{"core.speedup_nproc_spread", "ratio", "lower"},
		{"sumdclient.op_us", "us", "lower"},
		{"net.transport_us", "us", "lower"},
		{"sumdclient.retried_429", "count", "lower"},
	}...)
	for _, r := range routes {
		defs = append(defs,
			metricDef{"sumdsrv.handler_us." + r + ".p50", "us", "lower"},
			metricDef{"sumdsrv.handler_us." + r + ".p99", "us", "lower"})
	}
	return append(defs, []metricDef{
		{"sumdsrv.rejected", "count", "lower"},
		{"sumdsrv.deduped", "count", "lower"},
		{"keyed.add_us", "us", "lower"},
		{"keyed.sum_us", "us", "lower"},
		{"keyed.import_us", "us", "lower"},
		{"batch.requests_per_flush", "count", "higher"},
		{"batch.values_per_flush", "count", "higher"},
		{"batch.deadline_share", "ratio", "lower"},
		{"batch.flush_us", "us", "lower"},
		{"batch.wait_us", "us", "lower"},
		{"shard.apply_us", "us", "lower"},
		{"wal.commit_us", "us", "lower"},
		{"wal.fsyncs_per_op", "ratio", "lower"},
		{"wal.bytes_per_value", "B", "lower"},
		{"wal.append_commit_us", "us", "lower"},
		{"codec.marshal_us", "us", "lower"},
		{"codec.merge_us", "us", "lower"},
		{"proxy.handler_us.p50", "us", "lower"},
		{"proxy.handler_us.p99", "us", "lower"},
		{"proxy.leg_us.p50", "us", "lower"},
		{"proxy.leg_us.p99", "us", "lower"},
		{"proxy.fanout_overhead_us", "us", "lower"},
		{"proxy.envelope_us", "us", "lower"},
		{"proxy.hints_queued", "count", "lower"},
		{"proxy.legs_failed", "count", "lower"},
		{"proxy.read_failover", "count", "lower"},
		{"ring.replicas_ns", "ns", "lower"},
	}...)
}()

// percentile is the nearest-rank p-th percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns Q1, median, Q3 as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spanSet indexes a traced run's spans.
type spanSet struct {
	byName map[string][]Span
	kids   map[uint64][]Span
}

func indexSpans(spans []Span) spanSet {
	ix := spanSet{byName: map[string][]Span{}, kids: map[uint64][]Span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.kids[s.Parent] = append(ix.kids[s.Parent], s)
		}
	}
	return ix
}

func durUS(spans []Span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.Dur()) / 1e3
	}
	return out
}

// layerMetrics derives the seam metrics from the traced phase: spans,
// the sumd counters before and after it, and the proxy's counters.
func layerMetrics(spans []Span, before, after []sumdsrv.StatsResponse, sys *system, conns []stepper, traced *phase) map[string]float64 {
	m := map[string]float64{}
	ix := indexSpans(spans)

	// Client span, and the transport: client span minus the server
	// handler it caused.
	writes := ix.byName["sumdclient.write"]
	m["sumdclient.op_us"] = percentile(durUS(writes), 50)
	var transport []float64
	for _, c := range writes {
		for _, k := range ix.kids[c.ID] {
			if strings.Contains(k.Name, ".handler.") {
				transport = append(transport, float64(c.Dur()-k.Dur())/1e3)
			}
		}
	}
	m["net.transport_us"] = percentile(transport, 50)
	for _, c := range conns {
		if sc, ok := c.(*svcConn); ok {
			m["sumdclient.retried_429"] += float64(sc.cl.Retried429())
		}
	}

	for _, r := range routes {
		d := durUS(ix.byName["sumdsrv.handler."+r])
		m["sumdsrv.handler_us."+r+".p50"] = percentile(d, 50)
		m["sumdsrv.handler_us."+r+".p99"] = percentile(d, 99)
	}
	for _, st := range after {
		m["sumdsrv.rejected"] += float64(st.Rejected)
		m["sumdsrv.deduped"] += float64(st.Deduped)
	}

	// Batcher, apply and journal: counter deltas over the traced phase.
	applies := ix.byName["shard.apply"]
	m["shard.apply_us"] = percentile(durUS(applies), 50)
	if len(after) == 1 && after[0].Async != nil && after[0].WAL != nil {
		a, b := before[0], after[0]
		flushes := float64(b.Async.Flushes - a.Async.Flushes)
		if flushes > 0 {
			var applyNs int64
			for _, s := range applies {
				applyNs += s.Dur()
			}
			flushNs := float64(b.Async.FlushNsTotal - a.Async.FlushNsTotal)
			m["batch.requests_per_flush"] = float64(b.Async.FlushedRequests-a.Async.FlushedRequests) / flushes
			m["batch.values_per_flush"] = float64(b.Async.FlushedValues-a.Async.FlushedValues) / flushes
			m["batch.deadline_share"] = float64(b.Async.DeadlineFlushes-a.Async.DeadlineFlushes) / flushes
			m["batch.flush_us"] = flushNs / flushes / 1e3
			m["batch.wait_us"] = m["sumdsrv.handler_us.add.p50"] - m["batch.flush_us"]
			m["wal.commit_us"] = (flushNs - float64(applyNs)) / flushes / 1e3
		}
		if traced.acked > 0 {
			m["wal.fsyncs_per_op"] = float64(b.WAL.Fsyncs-a.WAL.Fsyncs) / float64(traced.acked)
			m["wal.bytes_per_value"] = float64(b.WAL.Bytes-a.WAL.Bytes) / (8 * float64(traced.values))
		}
	}

	// Proxy: handler, replica legs, and the handler time the slowest leg
	// does not explain.
	handlers := ix.byName["proxy.handler.add"]
	m["proxy.handler_us.p50"] = percentile(durUS(handlers), 50)
	m["proxy.handler_us.p99"] = percentile(durUS(handlers), 99)
	var legs, fanout []float64
	for _, h := range handlers {
		var slowest int64
		for _, k := range ix.kids[h.ID] {
			if k.Name == "proxy.leg" {
				legs = append(legs, float64(k.Dur())/1e3)
				slowest = max(slowest, k.Dur())
			}
		}
		fanout = append(fanout, float64(h.Dur()-slowest)/1e3)
	}
	m["proxy.leg_us.p50"] = percentile(legs, 50)
	m["proxy.leg_us.p99"] = percentile(legs, 99)
	m["proxy.fanout_overhead_us"] = percentile(fanout, 50)
	if sys != nil && sys.prox != nil {
		_, body := localGet(sys.prox, "/metrics")
		if fams, err := batch.ParseProm(body); err == nil {
			m["proxy.hints_queued"] = promValue(fams, "sumproxy_hints_queued_total", "")
			m["proxy.legs_failed"] = promValue(fams, "sumproxy_write_legs_total", `outcome="error"`)
			m["proxy.read_failover"] = promValue(fams, "sumproxy_read_failovers_total", "")
		}
	}
	return m
}

func promValue(fams map[string]*batch.PromFamily, name, labels string) float64 {
	if f := fams[name]; f != nil {
		for _, s := range f.Samples {
			if s.Labels == labels {
				return s.Value
			}
		}
	}
	return 0
}

// selfRow is one line of the "where the time goes" table: a span name,
// how many there were, and the median of their self times.
type selfRow struct {
	Name  string
	Count int
	P50us float64
}

func selfTable(spans []Span) []selfRow {
	self := SelfTimes(spans)
	byName := map[string][]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(self[s.ID])/1e3)
	}
	rows := make([]selfRow, 0, len(byName))
	for name, xs := range byName {
		rows = append(rows, selfRow{Name: name, Count: len(xs), P50us: percentile(xs, 50)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}
