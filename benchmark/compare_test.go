package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) for each input.
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4, 2}, 1.5, 3, 4.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	if p := percentile(xs, 50); p != 500 {
		t.Errorf("p50 = %v", p)
	}
	if p := percentile(xs, 99); p != 990 {
		t.Errorf("p99 = %v", p)
	}
	if p := percentile(nil, 99); p != 0 {
		t.Errorf("p99 of nothing = %v", p)
	}
}

func TestJudge(t *testing.T) {
	lower := bound{better: "lower", share: 0.05}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	cases := []struct {
		name string
		cand []float64
		b    bound
		want string
	}{
		{"same", []float64{100, 99, 101, 100, 100, 101, 99, 100, 102, 98}, lower, "within bound"},
		{"faster", []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}, lower, "improved"},
		{"slower", []float64{110, 111, 109, 110, 112, 108, 110, 111, 109, 110}, lower, "worse"},
		{"higher is better", []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}, bound{better: "higher", share: 0.05}, "worse"},
		{"noisy baseline", []float64{100, 100, 100, 100}, bound{better: "lower", share: 0.001}, "unresolved"},
		{"too few pairs to claim a gain", []float64{90, 91, 89, 90, 92}, lower, "within bound"},
	}
	for _, c := range cases {
		if got := judge(c.cand, base, c.b).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareRuns(t *testing.T) {
	mk := func(v float64) savedRun {
		return savedRun{Workloads: map[string]savedResult{"bulk-sum": {result: result{Metrics: map[string]metricValue{"setup_s": {Value: v, Unit: "s"}}}}}}
	}
	base := []savedRun{mk(100), mk(101), mk(99), mk(100), mk(100)}
	var out bytes.Buffer
	if code := compareRuns([]savedRun{mk(150), mk(151), mk(149), mk(150), mk(150)}, base, loadBounds("missing.json"), &out); code != 1 {
		t.Errorf("a 50%% slowdown exited %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("no worse verdict:\n%s", out.String())
	}
	out.Reset()
	if code := compareRuns(base, base, loadBounds("missing.json"), &out); code != 0 {
		t.Errorf("A/A exited %d:\n%s", code, out.String())
	}
}
