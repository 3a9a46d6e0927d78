package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
)

// GateResult is the per-engine verdict of the bench-regression gate: the
// best throughput the baseline recorded for the engine, the median of the
// candidate runs' best throughputs, their ratio, and whether the
// candidate stays within tolerance of the baseline.
type GateResult struct {
	Engine        string
	BaselineMops  float64   // best Mops/s across the baseline's worker counts
	CandidateMops float64   // median of CandidateRuns
	CandidateRuns []float64 // each candidate snapshot's best Mops/s
	Ratio         float64   // candidate / baseline
	Pass          bool
}

func (r GateResult) String() string {
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	line := fmt.Sprintf("%-4s %-10s baseline %8.1f Mops/s  candidate %8.1f Mops/s  ratio %.2f",
		verdict, r.Engine, r.BaselineMops, r.CandidateMops, r.Ratio)
	if len(r.CandidateRuns) > 1 {
		runs := make([]string, len(r.CandidateRuns))
		for i, v := range r.CandidateRuns {
			runs[i] = fmt.Sprintf("%.1f", v)
		}
		line += fmt.Sprintf("  (median of %d runs: %s)", len(runs), strings.Join(runs, ", "))
	}
	return line
}

// Input names the dataset a snapshot measured. Throughputs measured on
// different inputs are not comparable, so the gate compares snapshots
// only when their inputs match.
func (s ParallelSnapshot) Input() string {
	return fmt.Sprintf("n=%d delta=%d dist=%s", s.N, s.Delta, s.Dist)
}

// bestMops returns the engine's best Mops/s across a snapshot's points,
// or false when the engine was not measured.
func bestMops(s ParallelSnapshot, engine string) (float64, bool) {
	best, found := 0.0, false
	for _, p := range s.Points {
		if p.Engine == engine && p.MopsPerS > best {
			best, found = p.MopsPerS, true
		}
	}
	return best, found
}

// Gate compares candidate parallel-benchmark snapshots — repeated runs of
// the same figure — against the recorded baseline for the named engines.
// For each engine it takes the best Mops/s across worker counts in every
// snapshot (best-across-workers cancels the single- vs multi-core
// difference between CI shapes better than matching worker counts
// cell-by-cell), and fails the engine when the median candidate run falls
// below (1−tolerance)× the baseline, so one run slowed by a noisy
// neighbour cannot decide the verdict. An engine missing from any
// snapshot is an error — a gate that silently skips what it was asked to
// guard is worse than one that fails.
func Gate(baseline ParallelSnapshot, candidates []ParallelSnapshot, engines []string, tolerance float64) ([]GateResult, error) {
	if tolerance < 0 || tolerance >= 1 {
		return nil, fmt.Errorf("bench: gate tolerance %g outside [0, 1)", tolerance)
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("bench: no candidate snapshots")
	}
	var out []GateResult
	for _, e := range engines {
		b, ok := bestMops(baseline, e)
		if !ok {
			return nil, fmt.Errorf("bench: engine %q not in baseline snapshot (has: %s)", e, strings.Join(snapshotEngines(baseline), ", "))
		}
		runs := make([]float64, len(candidates))
		for i, cand := range candidates {
			c, ok := bestMops(cand, e)
			if !ok {
				return nil, fmt.Errorf("bench: engine %q not in candidate snapshot %d (has: %s)", e, i+1, strings.Join(snapshotEngines(cand), ", "))
			}
			runs[i] = c
		}
		c := median(runs)
		r := GateResult{Engine: e, BaselineMops: b, CandidateMops: c, CandidateRuns: runs, Ratio: c / b}
		r.Pass = c >= (1-tolerance)*b
		out = append(out, r)
	}
	return out, nil
}

// median returns the median of vs (the mean of the middle two for an
// even count), leaving vs unchanged.
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// snapshotEngines lists the distinct engines a snapshot measured, in
// first-appearance order.
func snapshotEngines(s ParallelSnapshot) []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range s.Points {
		if !seen[p.Engine] {
			seen[p.Engine] = true
			out = append(out, p.Engine)
		}
	}
	return out
}

// LoadParallelSnapshot reads a ParallelSnapshot JSON file (as written by
// `sumbench -figure parallel -jsonout`).
func LoadParallelSnapshot(path string) (ParallelSnapshot, error) {
	var s ParallelSnapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if len(s.Points) == 0 {
		return s, fmt.Errorf("bench: %s contains no benchmark points", path)
	}
	return s, nil
}
