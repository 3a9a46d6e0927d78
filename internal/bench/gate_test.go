package bench

import (
	"os"
	"path/filepath"
	"testing"
)

func snap(points ...ParallelPoint) ParallelSnapshot {
	return ParallelSnapshot{N: 1000, Reps: 1, Points: points}
}

func pt(engine string, workers int, mops float64) ParallelPoint {
	return ParallelPoint{Engine: engine, Workers: workers, MopsPerS: mops}
}

func TestGatePassAndFail(t *testing.T) {
	baseline := snap(pt("dense", 1, 30), pt("dense", 4, 40), pt("sparse", 1, 10))

	// Within tolerance: 30 ≥ 0.7 × 40.
	res, err := Gate(baseline, []ParallelSnapshot{snap(pt("dense", 1, 30))}, []string{"dense"}, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !res[0].Pass {
		t.Fatalf("expected pass, got %+v", res)
	}

	// Regression beyond tolerance: 20 < 0.7 × 40.
	res, err = Gate(baseline, []ParallelSnapshot{snap(pt("dense", 2, 20))}, []string{"dense"}, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Pass {
		t.Fatalf("expected fail, got %+v", res[0])
	}

	// Best-across-workers on the candidate side: a slow 1-worker cell is
	// fine when another cell holds the line.
	res, err = Gate(baseline, []ParallelSnapshot{snap(pt("dense", 1, 5), pt("dense", 4, 39))}, []string{"dense"}, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Pass {
		t.Fatalf("expected best-across-workers pass, got %+v", res[0])
	}

	// Improvements obviously pass.
	res, _ = Gate(baseline, []ParallelSnapshot{snap(pt("sparse", 1, 50))}, []string{"sparse"}, 0.30)
	if !res[0].Pass || res[0].Ratio < 4.9 {
		t.Fatalf("improvement mishandled: %+v", res[0])
	}
}

func TestGateErrors(t *testing.T) {
	baseline := snap(pt("dense", 1, 30))
	if _, err := Gate(baseline, []ParallelSnapshot{snap(pt("dense", 1, 30))}, []string{"sparse"}, 0.3); err == nil {
		t.Error("missing baseline engine not rejected")
	}
	if _, err := Gate(baseline, []ParallelSnapshot{snap(pt("sparse", 1, 30))}, []string{"dense"}, 0.3); err == nil {
		t.Error("missing candidate engine not rejected")
	}
	if _, err := Gate(baseline, []ParallelSnapshot{snap(pt("dense", 1, 30))}, []string{"dense"}, 1.5); err == nil {
		t.Error("tolerance ≥ 1 not rejected")
	}
	if _, err := Gate(baseline, []ParallelSnapshot{snap(pt("dense", 1, 30))}, []string{"dense"}, -0.1); err == nil {
		t.Error("negative tolerance not rejected")
	}
	if _, err := Gate(baseline, nil, []string{"dense"}, 0.3); err == nil {
		t.Error("no candidates not rejected")
	}
	if _, err := Gate(baseline, []ParallelSnapshot{snap(pt("dense", 1, 30)), snap(pt("sparse", 1, 30))}, []string{"dense"}, 0.3); err == nil {
		t.Error("engine missing from one candidate run not rejected")
	}
}

// TestGateMedianOfRuns: the verdict follows the median of the candidate
// runs' best throughputs, so one slow run among three passes and two
// fail.
func TestGateMedianOfRuns(t *testing.T) {
	baseline := snap(pt("dense", 1, 100))
	runs := func(mops ...float64) []ParallelSnapshot {
		var out []ParallelSnapshot
		for _, m := range mops {
			out = append(out, snap(pt("dense", 1, m/2), pt("dense", 2, m)))
		}
		return out
	}
	for _, tc := range []struct {
		mops []float64
		want float64
		pass bool
	}{
		{[]float64{95, 40, 105}, 95, true},
		{[]float64{40, 95, 50}, 50, false},
		{[]float64{60, 90}, 75, true},
		{[]float64{60}, 60, false},
	} {
		res, err := Gate(baseline, runs(tc.mops...), []string{"dense"}, 0.30)
		if err != nil {
			t.Fatal(err)
		}
		if r := res[0]; r.CandidateMops != tc.want || r.Pass != tc.pass || len(r.CandidateRuns) != len(tc.mops) {
			t.Errorf("runs %v: got %+v, want median %g pass %t", tc.mops, r, tc.want, tc.pass)
		}
	}
}

func TestSnapshotInput(t *testing.T) {
	a := ParallelSnapshot{N: 1000000, Delta: 2000, Dist: "Random", GoMaxProcs: 2}
	b := a
	b.GoMaxProcs, b.NumCPU, b.Reps = 1, 1, 5
	if a.Input() != b.Input() {
		t.Errorf("machine shape changed the input: %q vs %q", a.Input(), b.Input())
	}
	for _, c := range []ParallelSnapshot{{N: 4000000, Delta: 2000, Dist: "Random"}, {N: 1000000, Delta: 10, Dist: "Random"}, {N: 1000000, Delta: 2000, Dist: "SumZero"}} {
		if c.Input() == a.Input() {
			t.Errorf("%+v reads as the same input as %+v", c, a)
		}
	}
}

func TestLoadParallelSnapshot(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	data, err := snap(pt("dense", 1, 30)).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadParallelSnapshot(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 1 || s.Points[0].Engine != "dense" {
		t.Fatalf("round-trip lost data: %+v", s)
	}

	if _, err := LoadParallelSnapshot(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file not rejected")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("not json"), 0o644)
	if _, err := LoadParallelSnapshot(bad); err == nil {
		t.Error("malformed JSON not rejected")
	}
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte(`{"points":[]}`), 0o644)
	if _, err := LoadParallelSnapshot(empty); err == nil {
		t.Error("empty snapshot not rejected")
	}
}

// TestLoadRecordedBaseline pins that the checked-in BENCH_parallel.json
// stays loadable and contains the dense engine the CI gate guards.
func TestLoadRecordedBaseline(t *testing.T) {
	s, err := LoadParallelSnapshot("../../BENCH_parallel.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := bestMops(s, "dense"); !ok {
		t.Fatal("BENCH_parallel.json has no dense-engine points")
	}
}
