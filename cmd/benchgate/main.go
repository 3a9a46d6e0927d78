// Command benchgate is the CI bench-regression gate: it compares fresh
// parallel-benchmark snapshots (repeated runs of sumbench -figure
// parallel -jsonout ...) against the recorded baseline
// BENCH_parallel.json and exits non-zero when the median run of any
// guarded engine's best throughput regressed beyond the tolerance.
//
// Usage:
//
//	benchgate -baseline BENCH_parallel.json \
//	          -candidate run1.json,run2.json,run3.json \
//	          -engines dense -tolerance 0.30
//
// Snapshots measured on a different input (n, delta or dist) than the
// baseline are refused: a throughput on another input is not a
// regression verdict.
//
// Exit status: 0 all engines within tolerance, 1 regression detected,
// 2 usage or input error, including mismatched inputs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"parsum/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: load both snapshots, gate, report.
// It returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baselinePath  = fs.String("baseline", "BENCH_parallel.json", "recorded baseline snapshot")
		candidatePath = fs.String("candidate", "", "comma-separated candidate snapshots to gate, repeated runs of one figure (required)")
		engines       = fs.String("engines", "dense", "comma-separated engines to guard")
		tolerance     = fs.Float64("tolerance", 0.30, "allowed fractional throughput regression in [0,1)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *candidatePath == "" {
		fmt.Fprintln(stderr, "benchgate: -candidate is required")
		fs.Usage()
		return 2
	}
	baseline, err := bench.LoadParallelSnapshot(*baselinePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}
	var candidates []bench.ParallelSnapshot
	for _, path := range splitList(*candidatePath) {
		c, err := bench.LoadParallelSnapshot(path)
		if err != nil {
			fmt.Fprintln(stderr, "benchgate:", err)
			return 2
		}
		if c.Input() != baseline.Input() {
			fmt.Fprintf(stderr, "benchgate: %s measured a different input than the baseline; not a regression verdict\n  baseline:  %s\n  candidate: %s\n",
				path, baseline.Input(), c.Input())
			return 2
		}
		candidates = append(candidates, c)
	}
	results, err := bench.Gate(baseline, candidates, splitList(*engines), *tolerance)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}

	fmt.Fprintf(stdout, "bench-regression gate: tolerance %.0f%%, %s, baseline GOMAXPROCS=%d, %d candidate run(s) at GOMAXPROCS=%d\n",
		*tolerance*100, baseline.Input(), baseline.GoMaxProcs, len(candidates), candidates[0].GoMaxProcs)
	failed := false
	for _, r := range results {
		fmt.Fprintln(stdout, r)
		if !r.Pass {
			failed = true
		}
	}
	if failed {
		fmt.Fprintln(stderr, "benchgate: throughput regression beyond tolerance")
		return 1
	}
	return 0
}

// splitList splits a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}
