package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// snapshot writes a minimal ParallelSnapshot JSON with one dense point at
// the given throughput and returns its path.
func snapshot(t *testing.T, name string, mops float64) string {
	t.Helper()
	return snapshotN(t, name, 1000, mops)
}

// snapshotN is snapshot measured on an input of n values.
func snapshotN(t *testing.T, name string, n int, mops float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	data := fmt.Sprintf(`{"n":%d,"delta":10,"dist":"random","gomaxprocs":1,"reps":1,
		"points":[{"engine":"dense","workers":1,"chunk":64,"ns_per_op":1000,"mops_per_s":%g,"speedup_vs_base":1}]}`, n, mops)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runGate(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestGatePasses(t *testing.T) {
	base := snapshot(t, "base.json", 100)
	cand := snapshot(t, "cand.json", 95) // within 30%
	code, out, errb := runGate(t, "-baseline", base, "-candidate", cand)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	if !strings.Contains(out, "PASS") || !strings.Contains(out, "dense") {
		t.Fatalf("output %q missing PASS verdict", out)
	}
}

func TestGateImprovementPasses(t *testing.T) {
	base := snapshot(t, "base.json", 100)
	cand := snapshot(t, "cand.json", 250)
	if code, _, errb := runGate(t, "-baseline", base, "-candidate", cand); code != 0 {
		t.Fatalf("improvement failed the gate: exit %d, stderr %q", code, errb)
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	base := snapshot(t, "base.json", 100)
	cand := snapshot(t, "cand.json", 50) // 50% regression > 30% tolerance
	code, out, errb := runGate(t, "-baseline", base, "-candidate", cand)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(out, "FAIL") || !strings.Contains(errb, "regression") {
		t.Fatalf("out %q / stderr %q missing failure report", out, errb)
	}
}

func TestGateTightToleranceFlag(t *testing.T) {
	base := snapshot(t, "base.json", 100)
	cand := snapshot(t, "cand.json", 95)
	if code, _, _ := runGate(t, "-baseline", base, "-candidate", cand, "-tolerance", "0.01"); code != 1 {
		t.Fatalf("5%% drop passed a 1%% gate: exit %d", code)
	}
}

func TestGateUsageErrors(t *testing.T) {
	base := snapshot(t, "base.json", 100)
	cand := snapshot(t, "cand.json", 90)

	if code, _, errb := runGate(t); code != 2 || !strings.Contains(errb, "-candidate is required") {
		t.Errorf("missing candidate: exit %d, stderr %q", code, errb)
	}
	if code, _, _ := runGate(t, "-candidate", cand, "-baseline", filepath.Join(t.TempDir(), "missing.json")); code != 2 {
		t.Errorf("missing baseline file: exit %d, want 2", code)
	}
	if code, _, _ := runGate(t, "-baseline", base, "-candidate", cand, "-engines", "no-such"); code != 2 {
		t.Errorf("unknown engine: exit %d, want 2", code)
	}
	if code, _, _ := runGate(t, "-baseline", base, "-candidate", cand, "-tolerance", "1.5"); code != 2 {
		t.Errorf("bad tolerance: exit %d, want 2", code)
	}
	if code, _, _ := runGate(t, "-no-such-flag"); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}

	// Malformed JSON baseline.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runGate(t, "-baseline", bad, "-candidate", cand); code != 2 {
		t.Errorf("malformed baseline: exit %d, want 2", code)
	}
	// Empty snapshot.
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"points":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runGate(t, "-baseline", base, "-candidate", empty); code != 2 {
		t.Errorf("empty candidate: exit %d, want 2", code)
	}
}

// TestGateRefusesDifferentInput: a candidate measured on another input is
// a usage error that prints both inputs, not a verdict.
func TestGateRefusesDifferentInput(t *testing.T) {
	base := snapshotN(t, "base.json", 4000, 100)
	same := snapshotN(t, "same.json", 4000, 100)
	other := snapshotN(t, "other.json", 1000, 100)
	code, out, errb := runGate(t, "-baseline", base, "-candidate", same+","+other)
	if code != 2 {
		t.Fatalf("exit %d, want 2 (stdout %q)", code, out)
	}
	if !strings.Contains(errb, "n=4000 delta=10 dist=random") || !strings.Contains(errb, "n=1000 delta=10 dist=random") {
		t.Fatalf("stderr %q does not print both inputs", errb)
	}
}

// TestGateMedianOfRuns: CI passes three runs, and the median decides, so
// one slow run among three passes and two slow runs fail.
func TestGateMedianOfRuns(t *testing.T) {
	base := snapshot(t, "base.json", 100)
	fast1, fast2 := snapshot(t, "fast1.json", 98), snapshot(t, "fast2.json", 103)
	slow1, slow2 := snapshot(t, "slow1.json", 40), snapshot(t, "slow2.json", 55)

	code, out, errb := runGate(t, "-baseline", base, "-candidate", fast1+","+slow1+","+fast2)
	if code != 0 {
		t.Fatalf("one slow run of three: exit %d, stderr %q", code, errb)
	}
	if !strings.Contains(out, "median of 3 runs") {
		t.Fatalf("output %q does not report the runs", out)
	}
	if code, _, _ := runGate(t, "-baseline", base, "-candidate", slow1+","+fast1+","+slow2); code != 1 {
		t.Fatalf("two slow runs of three: exit %d, want 1", code)
	}
}
