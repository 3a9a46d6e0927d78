// Package bench regenerates the paper's figures and this reproduction's
// theory-validation tables as data series (see DESIGN.md §5 for the
// experiment index). Each function returns Tables; cmd/sumbench formats
// them for the terminal.
package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"parsum/internal/accum"
	"parsum/internal/baseline"
	"parsum/internal/condition"
	"parsum/internal/core"
	"parsum/internal/engine"
	"parsum/internal/extmem"
	"parsum/internal/gen"
	"parsum/internal/mapreduce"
	"parsum/internal/pram"
)

// Table is one rendered experiment: rows of an x value and named series.
type Table struct {
	Title  string
	XLabel string
	Series []string // column order
	Rows   []Row
	Notes  []string
}

// Row is one x position of a table.
type Row struct {
	X      string
	Values map[string]string
}

// Format renders a table as aligned text.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	widths := make([]int, len(t.Series)+1)
	widths[0] = len(t.XLabel)
	for i, s := range t.Series {
		widths[i+1] = len(s)
	}
	for _, r := range t.Rows {
		if len(r.X) > widths[0] {
			widths[0] = len(r.X)
		}
		for i, s := range t.Series {
			if v := r.Values[s]; len(v) > widths[i+1] {
				widths[i+1] = len(v)
			}
		}
	}
	pad := func(s string, w int) string { return s + strings.Repeat(" ", w-len(s)) }
	b.WriteString(pad(t.XLabel, widths[0]))
	for i, s := range t.Series {
		b.WriteString("  " + pad(s, widths[i+1]))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(pad(r.X, widths[0]))
		for i, s := range t.Series {
			b.WriteString("  " + pad(r.Values[s], widths[i+1]))
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func secs(d time.Duration) string { return fmt.Sprintf("%.3fs", d.Seconds()) }

func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// Config bundles the common experiment knobs with paper-like defaults.
type Config struct {
	Workers   int // modeled cluster size (paper: 32)
	SplitSize int // elements per split (paper: 128MB blocks = 16M doubles)
	Seed      uint64
	Verify    bool // cross-check algorithm outputs against each other
}

// Defaults returns the full-size configuration of the experiments indexed
// in DESIGN.md §5.
func Defaults() Config {
	return Config{Workers: 32, SplitSize: 1 << 20, Seed: 1, Verify: true}
}

const (
	serIFast  = "iFastSum"
	serSmall  = "MR-small"
	serSparse = "MR-sparse"
)

// figureSeries measures the paper's three algorithms on one dataset and
// returns their times: sequential iFastSum wall time and the modeled
// cluster time of the two MapReduce variants.
func figureSeries(xs []float64, scratch []float64, cfg Config, workers int) (map[string]string, []string) {
	var notes []string
	copy(scratch, xs)
	var vIF float64
	dIF := timeIt(func() { vIF = baseline.IFastSumInPlace(scratch) })

	rSmall := mapreduce.Run(xs, mapreduce.Config{
		Workers: workers, SplitSize: cfg.SplitSize, Acc: mapreduce.SmallAcc, Seed: cfg.Seed,
	})
	rSparse := mapreduce.Run(xs, mapreduce.Config{
		Workers: workers, SplitSize: cfg.SplitSize, Acc: mapreduce.SparseAcc, Seed: cfg.Seed,
	})
	if cfg.Verify {
		if vIF != rSmall.Sum || vIF != rSparse.Sum {
			notes = append(notes, fmt.Sprintf("MISMATCH: iFastSum=%g small=%g sparse=%g", vIF, rSmall.Sum, rSparse.Sum))
		}
	}
	return map[string]string{
		serIFast:  secs(dIF),
		serSmall:  secs(rSmall.Stats.ClusterTime()),
		serSparse: secs(rSparse.Stats.ClusterTime()),
	}, notes
}

// Figure1 reproduces the paper's Figure 1: total running time as the input
// size grows, at fixed δ, one table per distribution.
func Figure1(sizes []int64, delta int, cfg Config) []Table {
	var out []Table
	maxN := int64(0)
	for _, n := range sizes {
		if n > maxN {
			maxN = n
		}
	}
	scratch := make([]float64, maxN)
	for _, d := range gen.AllDists {
		t := Table{
			Title:  fmt.Sprintf("Figure 1 — %s (δ=%d, %d virtual workers)", d, delta, cfg.Workers),
			XLabel: "n",
			Series: []string{serIFast, serSmall, serSparse},
		}
		for _, n := range sizes {
			xs := gen.New(gen.Config{Dist: d, N: n, Delta: delta, Seed: cfg.Seed}).Slice()
			vals, notes := figureSeries(xs, scratch[:n], cfg, cfg.Workers)
			t.Rows = append(t.Rows, Row{X: fmt.Sprintf("%d", n), Values: vals})
			t.Notes = append(t.Notes, notes...)
		}
		out = append(out, t)
	}
	return out
}

// Figure2 reproduces the paper's Figure 2: running time as δ grows at a
// fixed input size.
func Figure2(n int64, deltas []int, cfg Config) []Table {
	var out []Table
	scratch := make([]float64, n)
	for _, d := range gen.AllDists {
		t := Table{
			Title:  fmt.Sprintf("Figure 2 — %s (n=%d, %d virtual workers)", d, n, cfg.Workers),
			XLabel: "delta",
			Series: []string{serIFast, serSmall, serSparse},
		}
		for _, delta := range deltas {
			xs := gen.New(gen.Config{Dist: d, N: n, Delta: delta, Seed: cfg.Seed}).Slice()
			vals, notes := figureSeries(xs, scratch, cfg, cfg.Workers)
			t.Rows = append(t.Rows, Row{X: fmt.Sprintf("%d", delta), Values: vals})
			t.Notes = append(t.Notes, notes...)
		}
		out = append(out, t)
	}
	return out
}

// Figure3 reproduces the paper's Figure 3: running time as the cluster
// size grows; iFastSum is the flat single-core reference.
func Figure3(n int64, delta int, workerList []int, cfg Config) []Table {
	var out []Table
	scratch := make([]float64, n)
	for _, d := range gen.AllDists {
		t := Table{
			Title:  fmt.Sprintf("Figure 3 — %s (n=%d, δ=%d)", d, n, delta),
			XLabel: "cores",
			Series: []string{serIFast, serSmall, serSparse},
		}
		xs := gen.New(gen.Config{Dist: d, N: n, Delta: delta, Seed: cfg.Seed}).Slice()
		// iFastSum is single-core: measure once, repeat down the column.
		copy(scratch, xs)
		dIF := timeIt(func() { baseline.IFastSumInPlace(scratch) })
		for _, w := range workerList {
			rSmall := mapreduce.Run(xs, mapreduce.Config{
				Workers: w, SplitSize: cfg.SplitSize, Acc: mapreduce.SmallAcc, Seed: cfg.Seed,
			})
			rSparse := mapreduce.Run(xs, mapreduce.Config{
				Workers: w, SplitSize: cfg.SplitSize, Acc: mapreduce.SparseAcc, Seed: cfg.Seed,
			})
			t.Rows = append(t.Rows, Row{X: fmt.Sprintf("%d", w), Values: map[string]string{
				serIFast:  secs(dIF),
				serSmall:  secs(rSmall.Stats.ClusterTime()),
				serSparse: secs(rSparse.Stats.ClusterTime()),
			}})
		}
		out = append(out, t)
	}
	return out
}

// PRAMTable validates Theorem 2's shape: steps grow logarithmically (with
// the carry-free constant 3 per level) and work linearly in n·K, against
// the carry-propagating ablation.
func PRAMTable(ns []int, width uint) Table {
	t := Table{
		Title:  fmt.Sprintf("T-PRAM — summation-tree steps and work (W=%d)", width),
		XLabel: "n",
		Series: []string{"cf-steps", "3·log2(n)+1", "cf-work", "cp-steps", "cp/cf-steps"},
	}
	for _, n := range ns {
		xs := gen.New(gen.Config{Dist: gen.Random, N: int64(n), Delta: 1500, Seed: 2}).Slice()
		cf, err := pram.TreeSum(xs, width, pram.EREW)
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		cp, err := pram.TreeSumCarryPropagate(xs, width, pram.EREW)
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		t.Rows = append(t.Rows, Row{X: fmt.Sprintf("%d", n), Values: map[string]string{
			"cf-steps":    fmt.Sprintf("%d", cf.Steps),
			"3·log2(n)+1": fmt.Sprintf("%d", 3*cf.Levels+1),
			"cf-work":     fmt.Sprintf("%d", cf.Work),
			"cp-steps":    fmt.Sprintf("%d", cp.Steps),
			"cp/cf-steps": fmt.Sprintf("%.1fx", float64(cp.Steps)/float64(cf.Steps)),
		}})
	}
	t.Notes = append(t.Notes,
		"cf = carry-free Lemma 1 merge (3 EREW steps/level); cp = carry-propagating merge (1+K steps/level)")
	return t
}

// CondTable validates Theorem 4's shape: the adaptive algorithm's rounds
// and per-element work grow with log C(X) while iFastSum's distillation
// passes grow alongside.
func CondTable(n int, gaps []int) Table {
	t := Table{
		Title:  fmt.Sprintf("T-COND — condition-number-sensitive work (n=%d)", n),
		XLabel: "gap",
		Series: []string{"log2C", "rounds", "finalR", "work/n", "iFast-passes"},
	}
	for _, gap := range gaps {
		xs := cancellationData(n, gap, 11)
		logC := condition.Log2(xs)
		// Small leaf chunks so the truncated summation tree is exercised
		// (with the default 64k chunk a 20k-element input is a single
		// exact leaf and no round ever truncates).
		_, st := core.SumAdaptive(xs, core.Options{ChunkSize: 64})
		_, passes := baseline.IFastSumStats(xs)
		t.Rows = append(t.Rows, Row{X: fmt.Sprintf("%d", gap), Values: map[string]string{
			"log2C":        fmt.Sprintf("%.0f", logC),
			"rounds":       fmt.Sprintf("%d", st.Rounds),
			"finalR":       fmt.Sprintf("%d", st.FinalR),
			"work/n":       fmt.Sprintf("%.2f", float64(st.Work)/float64(len(xs))),
			"iFast-passes": fmt.Sprintf("%d", passes),
		}})
	}
	t.Notes = append(t.Notes,
		"gap = exponent distance between the cancelling mass and the surviving residual; log2C ≈ gap")
	return t
}

// cancellationData builds a dataset of exactly cancelling pairs whose
// exponents densely cover a band of width `gap` sitting above a unit
// residual, giving C(X) ≈ 2^gap with σ ≈ gap/W active components — so the
// truncation bound the adaptive algorithm needs grows with gap, which is
// what makes the instance genuinely condition-hard (a narrow band of huge
// values would have large C(X) but tiny σ and be easy).
func cancellationData(n, gap int, seed uint64) []float64 {
	delta := gap
	if delta < 1 {
		delta = 1
	}
	src := gen.New(gen.Config{Dist: gen.CondOne, N: int64(n), Delta: delta, Seed: seed})
	lo, _ := src.ExponentRange()
	shift := 8 - lo // place the band at [2^8, 2^(8+gap)), above the residual
	xs := make([]float64, 0, 2*n+1)
	for i := int64(0); i < int64(n); i++ {
		v := math.Ldexp(src.At(i), shift)
		xs = append(xs, v, -v)
	}
	xs = append(xs, 1)
	// Deterministic scatter so pairs are not adjacent.
	sort.SliceStable(xs, func(i, j int) bool {
		return splitmix(uint64(i)*0x9E3779B97F4A7C15) < splitmix(uint64(j)*0x9E3779B97F4A7C15)
	})
	return xs
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// EMTable validates Theorems 5/6: measured I/Os against the scan(n) and
// sort(n) formulas.
func EMTable(ns []int64, b, m int) Table {
	t := Table{
		Title:  fmt.Sprintf("T-EM — external-memory I/Os (B=%d, M=%d records)", b, m),
		XLabel: "n",
		Series: []string{"scan-IOs", "scan(n)", "sort-IOs", "sort(3n)", "sort/scan"},
	}
	for _, n := range ns {
		xs := gen.New(gen.Config{Dist: gen.Random, N: n, Delta: 800, Seed: 3}).Slice()
		m1 := extmem.NewModel(b, m)
		if _, err := extmem.ScanSum(m1, extmem.FromSlice(m1, xs), 0); err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("scan n=%d: %v", n, err))
			continue
		}
		m2 := extmem.NewModel(b, m)
		if _, err := extmem.SortSum(m2, extmem.FromSlice(m2, xs), 0); err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("sort n=%d: %v", n, err))
			continue
		}
		t.Rows = append(t.Rows, Row{X: fmt.Sprintf("%d", n), Values: map[string]string{
			"scan-IOs":  fmt.Sprintf("%d", m1.IOs()),
			"scan(n)":   fmt.Sprintf("%d", m1.ScanIOs(n)),
			"sort-IOs":  fmt.Sprintf("%d", m2.IOs()),
			"sort(3n)":  fmt.Sprintf("%d", m2.SortIOs(3*n)),
			"sort/scan": fmt.Sprintf("%.1fx", float64(m2.IOs())/float64(m1.IOs())),
		}})
	}
	return t
}

// CarryTable is the Lemma 1 ablation across digit widths: the carry-free
// merge's PRAM depth is a constant 3 per level while the carry chain's is
// 1+K, growing as the radix shrinks.
func CarryTable(widths []uint, n int) Table {
	t := Table{
		Title:  fmt.Sprintf("T-ABL1 — carry-free vs carry-propagating merge depth (n=%d)", n),
		XLabel: "W",
		Series: []string{"K", "cf-steps/level", "cp-steps/level"},
	}
	xs := gen.New(gen.Config{Dist: gen.Random, N: int64(n), Delta: 1500, Seed: 4}).Slice()
	for _, w := range widths {
		cf, err := pram.TreeSum(xs, w, pram.EREW)
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		cp, _ := pram.TreeSumCarryPropagate(xs, w, pram.EREW)
		t.Rows = append(t.Rows, Row{X: fmt.Sprintf("%d", w), Values: map[string]string{
			"K":              fmt.Sprintf("%d", cf.K),
			"cf-steps/level": "3",
			"cp-steps/level": fmt.Sprintf("%d", 1+cp.K),
		}})
	}
	return t
}

// RadixTable is the design-choice ablation over the digit width W:
// sequential accumulate throughput and the components per value.
func RadixTable(widths []uint, n int64) Table {
	t := Table{
		Title:  fmt.Sprintf("T-ABL2 — radix width sweep (n=%d)", n),
		XLabel: "W",
		Series: []string{"accumulate", "Mops/s", "σ(final)"},
	}
	xs := gen.New(gen.Config{Dist: gen.Random, N: n, Delta: 1500, Seed: 5}).Slice()
	for _, w := range widths {
		a := accum.NewWindow(w)
		d := timeIt(func() { a.AddSlice(xs) })
		s := a.ToSparse()
		t.Rows = append(t.Rows, Row{X: fmt.Sprintf("%d", w), Values: map[string]string{
			"accumulate": secs(d),
			"Mops/s":     fmt.Sprintf("%.1f", float64(n)/d.Seconds()/1e6),
			"σ(final)":   fmt.Sprintf("%d", s.Len()),
		}})
	}
	return t
}

// SigmaTable measures σ — the number of active superaccumulator
// components — against the exponent-range parameter δ, for each
// distribution. This is the quantity behind the paper's Figure 2
// observations: the sparse accumulator's cost grows with δ because σ does,
// while Anderson's collapses regardless of δ.
func SigmaTable(n int64, deltas []int) Table {
	t := Table{
		Title:  fmt.Sprintf("T-SIGMA — active components σ vs δ (n=%d, W=32)", n),
		XLabel: "delta",
	}
	for _, d := range gen.AllDists {
		t.Series = append(t.Series, d.String())
	}
	for _, delta := range deltas {
		vals := map[string]string{}
		for _, d := range gen.AllDists {
			xs := gen.New(gen.Config{Dist: d, N: n, Delta: delta, Seed: 8}).Slice()
			a := accum.NewWindow(32)
			a.AddSlice(xs)
			vals[d.String()] = fmt.Sprintf("%d", a.ToSparse().Len())
		}
		t.Rows = append(t.Rows, Row{X: fmt.Sprintf("%d", delta), Values: vals})
	}
	return t
}

// CombinerTable is the combiner on/off ablation: shuffle volume and
// modeled time with and without map-side combining.
func CombinerTable(n int64, cfg Config) Table {
	t := Table{
		Title:  fmt.Sprintf("T-ABL3 — combiner ablation (n=%d, %d virtual workers)", n, cfg.Workers),
		XLabel: "combiner",
		Series: []string{"shuffle-recs", "shuffle-bytes", "cluster-time"},
	}
	xs := gen.New(gen.Config{Dist: gen.Random, N: n, Delta: 800, Seed: 6}).Slice()
	for _, off := range []bool{false, true} {
		r := mapreduce.Run(xs, mapreduce.Config{
			Workers: cfg.Workers, SplitSize: cfg.SplitSize,
			Acc: mapreduce.SparseAcc, NoCombine: off, Seed: cfg.Seed,
		})
		label := "on"
		if off {
			label = "off"
		}
		t.Rows = append(t.Rows, Row{X: label, Values: map[string]string{
			"shuffle-recs":  fmt.Sprintf("%d", r.Stats.ShuffleRecords),
			"shuffle-bytes": fmt.Sprintf("%d", r.Stats.ShuffleBytes),
			"cluster-time":  secs(r.Stats.ClusterTime()),
		}})
	}
	return t
}

// SeqTable is the sequential shoot-out: one-shot wall time of every
// registered summation engine on each distribution, with the error (in
// ulps of the correct result) of the ones that do not promise correct
// rounding. The column set is the engine registry, so a newly registered
// engine shows up here with no harness change.
func SeqTable(n int64, delta int) []Table {
	var out []Table
	engines := engine.All()
	var names []string
	for _, e := range engines {
		names = append(names, e.Name())
	}
	for _, d := range gen.AllDists {
		t := Table{
			Title:  fmt.Sprintf("T-SEQ — registered engines on %s (n=%d, δ=%d)", d, n, delta),
			XLabel: "metric",
			Series: names,
		}
		xs := gen.New(gen.Config{Dist: d, N: n, Delta: delta, Seed: 7}).Slice()
		exact := core.Sum(xs)
		times := map[string]string{}
		errs := map[string]string{}
		for _, e := range engines {
			var v float64
			dur := timeIt(func() { v = e.Sum(xs) })
			times[e.Name()] = secs(dur)
			switch {
			case v == exact:
				errs[e.Name()] = "0"
			case e.Caps().CorrectlyRounded:
				errs[e.Name()] = fmt.Sprintf("BUG(%g≠%g)", v, exact)
			default:
				errs[e.Name()] = fmt.Sprintf("%.3g", ulpsApart(exact, v))
			}
		}
		t.Rows = append(t.Rows, Row{X: "time", Values: times})
		t.Rows = append(t.Rows, Row{X: "err(ulp)", Values: errs})
		out = append(out, t)
	}
	return out
}

// ulpsApart estimates |got−want| in units of ulp(want).
func ulpsApart(want, got float64) float64 {
	if math.IsInf(got, 0) || math.IsNaN(got) {
		return math.Inf(1)
	}
	u := math.Abs(want)
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	} else {
		u = math.Nextafter(u, math.Inf(1)) - u
	}
	return math.Abs(got-want) / u
}
