// Command benchmark is parsum's end-to-end benchmark: four seeded
// workloads, from the exact-sum kernel alone to keyed writes through the
// replicating proxy, each checking every answer bit for bit against the
// math/big oracle. See README.md for the workloads and metrics.
//
// One workload, built from source, from the repository root:
//
//	bash benchmark/run.sh --workload keyed-ingest --seed 1 --seconds 20 --trace 0
//
// All four, each in its own child process, with results saved:
//
//	go run . -seed 1 -out results.json
//
// Compare saved runs (candidate against baseline):
//
//	go run . -bounds ../BENCHMARK.json -compare a1.json,a2.json,a3.json -against b1.json,b2.json,b3.json
//
// The last line of standard output is the result as one JSON object.
// The command exits 1 when any answer is wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// savedRun is the -out file: one invocation's results per workload.
type savedRun struct {
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	NumCPU    int                    `json:"num_cpu"`
	GoVersion string                 `json:"go_version"`
	Workloads map[string]savedResult `json:"workloads"`
}

// savedResult is a result line plus the ungated end-to-end metrics.
type savedResult struct {
	result
	Ungated map[string]metricValue `json:"ungated,omitempty"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 20, "measured run length per workload")
	trace := fs.Int("trace", 0, "1: run untraced then traced halves and report the per-layer metrics")
	out := fs.String("out", "", "also write the results to this JSON file")
	workdir := fs.String("workdir", ".bench_build", "directory for journals and span files (a traced run writes spans-<workload>.json here)")
	compare := fs.String("compare", "", "comma-separated result files of the candidate")
	against := fs.String("against", "", "comma-separated result files of the baseline")
	boundsPath := fs.String("bounds", "BENCHMARK.json", "file with each metric's regression bound, for -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" || *against != "" {
		return runCompare(strings.Split(*compare, ","), strings.Split(*against, ","), *boundsPath, stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	cfg := config{
		Workload: *workload,
		Seed:     *seed,
		Measure:  time.Duration(*seconds * float64(time.Second)),
		Warmup:   2 * time.Second,
		Trace:    *trace == 1,
		Pool:     defaultPool,
		Setups:   11,
		Rungs:    300 * time.Millisecond,
		Workdir:  *workdir,
	}
	saved := savedRun{Seed: *seed, Seconds: *seconds, Trace: cfg.Trace, NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Workloads: map[string]savedResult{}}

	var code int
	if *workload == "all" {
		code = runAll(args, *workdir, saved.Workloads, stdout, stderr)
	} else {
		if _, ok := lookupWorkload(*workload); !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (want all or one of %s)\n", *workload, workloadNames())
			return 2
		}
		if cfg.Trace {
			cfg.Spans = filepath.Join(*workdir, "spans-"+*workload+".json")
		}
		rep, err := run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", *workload, err)
			return 1
		}
		res := printReport(rep, cfg, stdout, stderr)
		sr := savedResult{result: res, Ungated: map[string]metricValue{}}
		for _, d := range ungated {
			sr.Ungated[d.name] = metricValue{Value: rep.Metrics[d.name], Unit: d.unit}
		}
		saved.Workloads[*workload] = sr
		b, _ := json.Marshal(res)
		fmt.Fprintln(stdout, string(b))
		if !res.Correct {
			code = 1
		}
	}
	if *out != "" {
		b, _ := json.MarshalIndent(saved, "", "  ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// printReport writes the human-readable lines for one workload and
// returns its result line: the gated end-to-end metrics, or for a traced
// run the per-layer ones.
func printReport(rep *report, cfg config, stdout, stderr io.Writer) result {
	res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(stdout, "workload %s  seed %d  GOMAXPROCS %d  num_cpu %d  %s\n",
		rep.Workload, cfg.Seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	line := func(d metricDef) {
		s := fmt.Sprintf("  %-36s %16.6g %s", d.name, rep.Metrics[d.name], d.unit)
		if n, ok := rep.Samples[d.name]; ok {
			s += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(stdout, s)
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: rep.Metrics[d.name], Unit: d.unit}
		line(d)
	}
	if !cfg.Trace {
		fmt.Fprintln(stdout, "  ungated (run-to-run spread on a shared host exceeds any usable bound):")
		for _, d := range ungated {
			line(d)
		}
	}
	if len(rep.SelfTime) > 0 {
		fmt.Fprintln(stdout, "  where the time goes (median self time per span, traced half):")
		for _, r := range rep.SelfTime {
			fmt.Fprintf(stdout, "    %-36s %12.2f us  (n=%d)\n", r.Name, r.P50us, r.Count)
		}
	}
	fmt.Fprintf(stdout, "  attempted %d  failed %d  correct %t\n", rep.Attempted, rep.Failed, rep.Correct)
	for _, e := range rep.Errors {
		fmt.Fprintln(stderr, "benchmark:", rep.Workload+":", e)
	}
	return res
}

// runAll runs every workload in a fresh child process of this binary, so
// each has its own heap, GC state and peak RSS. Each child saves its
// result in workdir for the parent to collect.
func runAll(args []string, workdir string, into map[string]savedResult, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	var base []string // args without -workload and -out, which the parent sets per child
	for i := 0; i < len(args); i++ {
		key, _, hasValue := strings.Cut(strings.TrimLeft(args[i], "-"), "=")
		if key == "workload" || key == "out" {
			if !hasValue {
				i++
			}
			continue
		}
		base = append(base, args[i])
	}
	code := 0
	for _, w := range workloads {
		out := filepath.Join(workdir, "result-"+w.name+".json")
		cmd := exec.Command(self, append(append([]string(nil), base...), "-workload", w.name, "-out", out)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
		runs, err := loadRuns([]string{out})
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: no result: %v\n", w.name, err)
			code = 1
			continue
		}
		into[w.name] = runs[0].Workloads[w.name]
		_ = os.Remove(out)
	}
	return code
}

// ---- compare ----

type boundsFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadRuns(paths []string) ([]savedRun, error) {
	var runs []savedRun
	for _, p := range paths {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r savedRun
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no result files given")
	}
	return runs, nil
}

// runCompare prints, per workload and end-to-end metric, each side's
// median and quartile spread, the pair wins, and a verdict. It exits 1
// when a gated metric is worse by more than its bound.
func runCompare(candPaths, basePaths []string, boundsPath string, stdout, stderr io.Writer) int {
	cand, err := loadRuns(candPaths)
	if err == nil {
		var base []savedRun
		base, err = loadRuns(basePaths)
		if err == nil {
			return compareRuns(cand, base, loadBounds(boundsPath), stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 2
}

// bound is one gated metric's direction and regression bound.
type bound struct {
	better string
	share  float64
}

// ungatedBound is the reference bound -compare judges ungated metrics
// against: the spread above which a metric leaves the gated set.
const ungatedBound = 0.10

func loadBounds(path string) map[string]bound {
	out := map[string]bound{}
	for _, d := range endToEnd {
		out[d.name] = bound{better: d.better, share: 0.05}
	}
	for _, d := range ungated {
		out[d.name] = bound{better: d.better, share: ungatedBound}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var bf boundsFile
	if json.Unmarshal(data, &bf) == nil {
		for _, m := range bf.EndToEnd {
			out[m.Name] = bound{better: m.Better, share: m.Bound}
		}
	}
	return out
}

func compareRuns(cand, base []savedRun, bounds map[string]bound, stdout io.Writer) int {
	var names []string
	for name := range base[0].Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	isUngated := map[string]bool{}
	for _, d := range ungated {
		isUngated[d.name] = true
	}
	code := 0
	fmt.Fprintf(stdout, "%-17s %-15s %12s %12s %10s %10s %7s %6s %7s  %s\n",
		"workload", "metric", "base_median", "cand_median", "base_iqr%", "cand_iqr%", "worse%", "wins", "bound%", "verdict")
	for _, w := range names {
		for _, d := range append(append([]metricDef(nil), endToEnd...), ungated...) {
			bv, cv := column(base, w, d.name), column(cand, w, d.name)
			if len(bv) == 0 || len(cv) == 0 || median(bv) == 0 {
				continue
			}
			b := bounds[d.name]
			v := judge(cv, bv, b)
			if isUngated[d.name] {
				v.verdict += " (ungated)"
			} else if v.verdict == "worse" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-17s %-15s %12.4g %12.4g %10.2f %10.2f %7.2f %3d/%-2d %7.1f  %s\n",
				w, d.name, v.baseMed, v.candMed, 100*v.baseSpread, 100*v.candSpread, 100*v.worse, v.wins, v.pairs, 100*b.share, v.verdict)
		}
	}
	return code
}

func column(runs []savedRun, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		res, ok := r.Workloads[workload]
		if !ok {
			continue
		}
		if m, ok := res.Metrics[metric]; ok {
			out = append(out, m.Value)
		} else if m, ok := res.Ungated[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

type judgement struct {
	baseMed, candMed       float64
	baseSpread, candSpread float64 // (Q3−Q1)/median
	worse                  float64 // relative change, positive = worse
	wins, pairs            int
	verdict                string
}

// judge applies the comparison rule: improved when, over at least ten
// pairs, the candidate wins nine tenths of them and the medians differ by
// more than the baseline's own quartile spread; unresolved when the baseline's spread
// exceeds the bound (unless every candidate run beats every baseline
// run); worse when the median moved the wrong way by more than the
// bound; otherwise within bound.
func judge(cand, base []float64, b bound) judgement {
	bq1, bmed, bq3 := quartiles(base)
	cq1, cmed, cq3 := quartiles(cand)
	better := func(x, y float64) bool { // x better than y
		if b.better == "higher" {
			return x > y
		}
		return x < y
	}
	j := judgement{baseMed: bmed, candMed: cmed, baseSpread: (bq3 - bq1) / bmed, candSpread: (cq3 - cq1) / cmed}
	j.worse = (cmed - bmed) / bmed
	if b.better == "higher" {
		j.worse = -j.worse
	}
	j.pairs = min(len(cand), len(base))
	for i := 0; i < j.pairs; i++ {
		if better(cand[i], base[i]) {
			j.wins++
		}
	}
	allBetter := true
	for _, c := range cand {
		for _, x := range base {
			if !better(c, x) {
				allBetter = false
			}
		}
	}
	diff := cmed - bmed
	if diff < 0 {
		diff = -diff
	}
	switch {
	case j.pairs >= 10 && better(cmed, bmed) && 10*j.wins >= 9*j.pairs && diff > bq3-bq1:
		j.verdict = "improved"
	case j.baseSpread > b.share && !allBetter:
		j.verdict = "unresolved"
	case j.worse > b.share:
		j.verdict = "worse"
	default:
		j.verdict = "within bound"
	}
	return j
}
