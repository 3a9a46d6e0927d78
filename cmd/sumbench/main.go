// Command sumbench regenerates the paper's figures and the reproduction's
// theory-validation tables (see DESIGN.md §5 for the experiment index and
// EXPERIMENTS.md for a recorded reference run).
//
// Usage:
//
//	sumbench -figure f1 [-sizes 1000000,10000000] [-delta 2000] [-workers 32]
//	sumbench -figure all -quick
//	sumbench -figure engines                  # list the engine registry
//	sumbench -figure parallel -jsonout BENCH_parallel.json
//
// Figures: f1 f2 f3 pram cond em carry radix sigma combiner seq parallel
// stream engines all. The seq, parallel, and stream figures enumerate
// the summation-engine registry, so newly registered engines appear
// without harness changes. Unknown -figure or
// -engines names exit with status 2 and print the valid names.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"parsum/internal/bench"
	"parsum/internal/engine"
)

// validFigures lists every -figure value, in the order "all" runs them
// (engines, the registry listing, is skipped by "all").
var validFigures = []string{
	"f1", "f2", "f3", "pram", "cond", "em", "carry", "radix", "sigma",
	"combiner", "seq", "parallel", "stream", "engines",
}

func main() {
	var (
		figure    = flag.String("figure", "all", "which experiment to run: "+strings.Join(validFigures, " ")+" all")
		sizes     = flag.String("sizes", "1000000,10000000,100000000", "comma-separated input sizes for figure 1")
		n         = flag.Int64("n", 10_000_000, "input size for figures 2 and 3")
		delta     = flag.Int("delta", 2000, "exponent-range parameter δ for figures 1 and 3")
		deltas    = flag.String("deltas", "10,30,50,100,300,500,1000,2000", "δ sweep for figure 2")
		workers   = flag.Int("workers", 32, "modeled cluster size")
		workerSet = flag.String("workerlist", "1,2,4,8,16,32", "cluster-size sweep for figure 3")
		split     = flag.Int("split", 1<<20, "elements per input split")
		seed      = flag.Uint64("seed", 1, "dataset seed")
		quick     = flag.Bool("quick", false, "shrink sizes for a fast smoke run")
		engines   = flag.String("engines", "dense,sparse,small,large", "engines for the parallel and stream figures")
		reps      = flag.Int("reps", 3, "repetitions per parallel/stream cell (best-of)")
		slots     = flag.String("slots", "1,4,16", "slot-count sweep for the stream figure")
		buckets   = flag.String("buckets", "1024,65536", "bucket-size (values per eviction) sweep for the stream figure")
		jsonOut   = flag.String("jsonout", "", "write the parallel or stream figure's snapshot as JSON to this file")
	)
	flag.Parse()

	cfg := bench.Defaults()
	cfg.Workers = *workers
	cfg.SplitSize = *split
	cfg.Seed = *seed

	szs := parseInts64(*sizes)
	dls := parseInts(*deltas)
	wl := parseInts(*workerSet)
	nn := *n
	if *quick {
		szs = []int64{100_000, 1_000_000}
		nn = 1_000_000
		cfg.SplitSize = 1 << 16
	}

	show := func(ts ...bench.Table) {
		for _, t := range ts {
			fmt.Println(t.Format())
		}
	}
	// checkEngines resolves the -engines flag, exiting with the registry's
	// valid names on an unknown engine. When needSharded is set it also
	// requires the capabilities the sharded ingestion layer needs.
	checkEngines := func(needSharded bool) []string {
		names := splitNames(*engines)
		for _, nm := range names {
			e, ok := engine.Get(nm)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown engine %q (known: %s)\n", nm, strings.Join(engine.Names(), ", "))
				os.Exit(2)
			}
			if caps := e.Caps(); needSharded && (!caps.Streaming || !caps.DeterministicParallel) {
				fmt.Fprintf(os.Stderr, "engine %q cannot back sharded ingestion (needs Streaming and DeterministicParallel)\n", nm)
				os.Exit(2)
			}
		}
		return names
	}
	writeJSON := func(data []byte, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "encoding snapshot: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("snapshot written to %s\n", *jsonOut)
	}
	run := func(name string) {
		switch name {
		case "f1":
			show(bench.Figure1(szs, *delta, cfg)...)
		case "f2":
			show(bench.Figure2(nn, dls, cfg)...)
		case "f3":
			show(bench.Figure3(nn, *delta, wl, cfg)...)
		case "pram":
			show(bench.PRAMTable([]int{64, 256, 1024, 4096}, 32))
		case "cond":
			show(bench.CondTable(20000, []int{0, 100, 200, 300, 400, 500, 700, 900}))
		case "em":
			show(bench.EMTable([]int64{10_000, 40_000, 160_000, 640_000}, 256, 2048))
		case "carry":
			show(bench.CarryTable([]uint{8, 16, 24, 32}, 256))
		case "radix":
			sz := nn
			if *quick {
				sz = 1_000_000
			}
			show(bench.RadixTable([]uint{8, 16, 24, 32}, sz))
		case "combiner":
			show(bench.CombinerTable(nn, cfg))
		case "sigma":
			sz := nn
			if *quick {
				sz = 100_000
			}
			show(bench.SigmaTable(sz, dls))
		case "seq":
			sz := nn
			if *quick {
				sz = 1_000_000
			}
			show(bench.SeqTable(sz, *delta)...)
		case "parallel":
			sz := nn
			if *quick {
				sz = 1_000_000
			}
			if ncpu := runtime.NumCPU(); maxInts(wl) > ncpu {
				fmt.Fprintf(os.Stderr, "warning: -workerlist goes up to %d but the machine has %d CPU(s); oversubscribed cells measure scheduling overhead, not scalability\n",
					maxInts(wl), ncpu)
			}
			snap := bench.ParallelBench(sz, *delta, wl, checkEngines(false), *reps)
			show(snap.Table())
			if *jsonOut != "" {
				data, err := snap.JSON()
				writeJSON(data, err)
			}
		case "stream":
			sz := nn
			if *quick {
				sz = 1_000_000
			}
			sl := parseInts(*slots)
			bk := parseInts(*buckets)
			for _, v := range append(append([]int{}, sl...), bk...) {
				if v < 1 {
					fmt.Fprintf(os.Stderr, "stream slot counts and bucket sizes must be >= 1 (got %d)\n", v)
					os.Exit(2)
				}
			}
			names := checkEngines(true)
			for _, nm := range names {
				if !engine.MustGet(nm).Caps().Invertible {
					fmt.Fprintf(os.Stderr, "engine %q cannot back a sliding window (needs Invertible)\n", nm)
					os.Exit(2)
				}
			}
			snap := bench.StreamBench(sz, *delta, sl, bk, names, *reps)
			show(snap.Table())
			if *jsonOut != "" {
				data, err := snap.JSON()
				writeJSON(data, err)
			}
		case "engines":
			listEngines()
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %q (valid: %s, all)\n", name, strings.Join(validFigures, ", "))
			os.Exit(2)
		}
	}
	if *figure == "all" {
		for _, f := range validFigures {
			if f == "engines" {
				continue // the registry listing is not an experiment
			}
			run(f)
		}
		return
	}
	for _, f := range strings.Split(*figure, ",") {
		run(strings.TrimSpace(f))
	}
}

// listEngines prints the summation-engine registry with capability flags.
func listEngines() {
	fmt.Printf("%-12s %-8s %s\n", "ENGINE", "CAPS", "DESCRIPTION")
	for _, e := range engine.All() {
		c := e.Caps()
		flags := ""
		for _, f := range []struct {
			on bool
			ch string
		}{{c.Exact, "E"}, {c.CorrectlyRounded, "R"}, {c.Faithful, "F"}, {c.DeterministicParallel, "P"}, {c.Streaming, "S"}, {c.Invertible, "I"}} {
			if f.on {
				flags += f.ch
			} else {
				flags += "-"
			}
		}
		fmt.Printf("%-12s %-8s %s\n", e.Name(), flags, e.Doc())
	}
	fmt.Println("caps: E=exact R=correctly-rounded F=faithful P=deterministic-parallel S=streaming I=invertible")
}

func splitNames(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(s string) []int {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad integer %q\n", p)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func maxInts(vs []int) int {
	m := 0
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

func parseInts64(s string) []int64 {
	var out []int64
	for _, v := range parseInts(s) {
		out = append(out, int64(v))
	}
	return out
}
