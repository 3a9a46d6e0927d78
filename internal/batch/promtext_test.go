package batch

import (
	"strings"
	"testing"
)

// buildExposition writes one of every family kind through PromWriter.
func buildExposition(reqs int64) []byte {
	var w PromWriter
	w.Gauge("app_up", "whether the app is up", 1)
	w.Counter("app_requests_total", "requests served", float64(reqs))
	w.CounterVec("app_flush_cause_total", "flushes by cause", "cause",
		map[string]float64{"size": float64(reqs / 2), "drain": float64(reqs / 4)})
	counts := []int64{reqs, 2, 1, 0}
	w.Histogram("app_flush_size", "values per flush", []float64{8, 64, 256}, counts, float64(reqs*3))
	return w.Bytes()
}

func TestPromWriterRoundTripsThroughLinter(t *testing.T) {
	fams, err := LintProm(buildExposition(100))
	if err != nil {
		t.Fatalf("linting our own exposition: %v", err)
	}
	for _, name := range []string{"app_up", "app_requests_total", "app_flush_cause_total", "app_flush_size"} {
		if fams[name] == nil {
			t.Fatalf("family %s missing after parse", name)
		}
	}
	f := fams["app_flush_size"]
	if got, _ := f.series("app_flush_size_count", ""); got != 103 {
		t.Fatalf("histogram _count = %v, want 103", got)
	}
	if v, ok := fams["app_flush_cause_total"].series("app_flush_cause_total", `cause="size"`); !ok || v != 50 {
		t.Fatalf("labelled counter series = %v (ok=%v), want 50", v, ok)
	}
}

func TestCheckMonotoneAcceptsGrowth(t *testing.T) {
	prev, err := LintProm(buildExposition(100))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := LintProm(buildExposition(200))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckMonotone(prev, cur); err != nil {
		t.Fatalf("growing counters flagged: %v", err)
	}
	// Gauges may move freely; only counters/histograms are constrained.
	if err := CheckMonotone(cur, prev); err == nil {
		t.Fatal("shrinking counters not flagged")
	}
}

func TestParsePromRejectsMalformedExpositions(t *testing.T) {
	cases := map[string]string{
		"sample before metadata": "app_x_total 1\n",
		"missing TYPE": "# HELP app_x_total help text\n" +
			"app_x_total 1\n",
		"invalid TYPE": "# HELP app_x_total h\n# TYPE app_x_total countr\napp_x_total 1\n",
		"duplicate series": "# HELP app_x_total h\n# TYPE app_x_total counter\n" +
			"app_x_total 1\napp_x_total 2\n",
		"duplicate labelled series": "# HELP app_x_total h\n# TYPE app_x_total counter\n" +
			"app_x_total{c=\"a\"} 1\napp_x_total{c=\"a\"} 2\n",
		"bad value": "# HELP app_x_total h\n# TYPE app_x_total counter\napp_x_total one\n",
		"bad name":  "# HELP 9bad h\n# TYPE 9bad counter\n9bad 1\n",
		"HELP after samples": "# HELP app_x_total h\n# TYPE app_x_total counter\napp_x_total 1\n" +
			"# HELP app_x_total again\n",
	}
	for name, text := range cases {
		if _, err := ParseProm([]byte(text)); err == nil {
			t.Errorf("%s: accepted %q", name, text)
		}
	}
	// Distinct label values are distinct series, not duplicates.
	ok := "# HELP app_x_total h\n# TYPE app_x_total counter\n" +
		"app_x_total{c=\"a\"} 1\napp_x_total{c=\"b\"} 2\n"
	if _, err := ParseProm([]byte(ok)); err != nil {
		t.Errorf("distinct label values rejected: %v", err)
	}
}

func TestLintPromRejectsBrokenHistograms(t *testing.T) {
	head := "# HELP h_x h\n# TYPE h_x histogram\n"
	cases := map[string]string{
		"non-cumulative buckets": head +
			"h_x_bucket{le=\"1\"} 5\nh_x_bucket{le=\"2\"} 3\nh_x_bucket{le=\"+Inf\"} 5\nh_x_sum 1\nh_x_count 5\n",
		"unordered bounds": head +
			"h_x_bucket{le=\"2\"} 1\nh_x_bucket{le=\"1\"} 2\nh_x_bucket{le=\"+Inf\"} 2\nh_x_sum 1\nh_x_count 2\n",
		"missing +Inf": head +
			"h_x_bucket{le=\"1\"} 1\nh_x_sum 1\nh_x_count 1\n",
		"count mismatch": head +
			"h_x_bucket{le=\"1\"} 1\nh_x_bucket{le=\"+Inf\"} 2\nh_x_sum 1\nh_x_count 3\n",
		"missing sum": head +
			"h_x_bucket{le=\"1\"} 1\nh_x_bucket{le=\"+Inf\"} 2\nh_x_count 2\n",
		"negative counter": "# HELP c_x_total h\n# TYPE c_x_total counter\nc_x_total -1\n",
	}
	for name, text := range cases {
		if _, err := LintProm([]byte(text)); err == nil {
			t.Errorf("%s: lint accepted\n%s", name, text)
		}
	}
}

func TestCheckMonotoneCatchesDisappearingSeries(t *testing.T) {
	full := "# HELP c_total h\n# TYPE c_total counter\nc_total{c=\"a\"} 1\nc_total{c=\"b\"} 1\n"
	partial := "# HELP c_total h\n# TYPE c_total counter\nc_total{c=\"a\"} 2\n"
	prev, err := LintProm([]byte(full))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := LintProm([]byte(partial))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckMonotone(prev, cur); err == nil || !strings.Contains(err.Error(), "disappeared") {
		t.Fatalf("disappearing series not flagged (err=%v)", err)
	}
}

func TestBucketIdx(t *testing.T) {
	bounds := []float64{1, 8, 64}
	for _, tc := range []struct {
		v    float64
		want int
	}{{0.5, 0}, {1, 0}, {2, 1}, {8, 1}, {64, 2}, {65, 3}} {
		if got := bucketIdx(bounds, tc.v); got != tc.want {
			t.Errorf("bucketIdx(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
}
