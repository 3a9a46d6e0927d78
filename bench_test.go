// Benchmarks regenerating every figure and table of the evaluation (scaled
// for `go test -bench`; cmd/sumbench runs the full-size versions — see
// DESIGN.md §5).
package parsum_test

import (
	"fmt"
	"testing"

	"parsum"
	"parsum/internal/accum"
	"parsum/internal/baseline"
	"parsum/internal/bench"
	"parsum/internal/core"
	"parsum/internal/extmem"
	"parsum/internal/gen"
	"parsum/internal/mapreduce"
	"parsum/internal/pram"
)

func dataset(d gen.Dist, n int64, delta int) []float64 {
	return gen.New(gen.Config{Dist: d, N: n, Delta: delta, Seed: 1}).Slice()
}

// BenchmarkFigure1 is the paper's Figure 1 at bench scale: the three
// algorithms across the four distributions at fixed n and δ.
func BenchmarkFigure1(b *testing.B) {
	const n, delta = 1 << 18, 2000
	for _, d := range gen.AllDists {
		xs := dataset(d, n, delta)
		scratch := make([]float64, n)
		b.Run(fmt.Sprintf("%s/iFastSum", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(scratch, xs)
				baseline.IFastSumInPlace(scratch)
			}
		})
		for _, kind := range []mapreduce.AccKind{mapreduce.SmallAcc, mapreduce.SparseAcc} {
			b.Run(fmt.Sprintf("%s/%s", d, kind), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mapreduce.Run(xs, mapreduce.Config{
						Workers: 32, SplitSize: 1 << 14, Acc: kind,
					})
				}
			})
		}
	}
}

// BenchmarkFigure2 sweeps δ on the Sum=Zero dataset (where the paper sees
// the strongest δ dependence).
func BenchmarkFigure2(b *testing.B) {
	const n = 1 << 18
	for _, delta := range []int{10, 100, 1000, 2000} {
		xs := dataset(gen.SumZero, n, delta)
		scratch := make([]float64, n)
		b.Run(fmt.Sprintf("delta=%d/iFastSum", delta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(scratch, xs)
				baseline.IFastSumInPlace(scratch)
			}
		})
		b.Run(fmt.Sprintf("delta=%d/sparse", delta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mapreduce.Run(xs, mapreduce.Config{Workers: 32, SplitSize: 1 << 14})
			}
		})
	}
}

// BenchmarkFigure3 sweeps the modeled cluster size; b.ReportMetric exposes
// the modeled cluster time, which is what shrinks with cores (wall time on
// this machine does not — one physical core).
func BenchmarkFigure3(b *testing.B) {
	xs := dataset(gen.Random, 1<<18, 2000)
	for _, w := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("cores=%d", w), func(b *testing.B) {
			var modeled float64
			for i := 0; i < b.N; i++ {
				r := mapreduce.Run(xs, mapreduce.Config{Workers: w, SplitSize: 1 << 13})
				modeled = r.Stats.ClusterTime().Seconds()
			}
			b.ReportMetric(modeled*1e9, "modeled-ns/job")
		})
	}
}

// BenchmarkPRAMTree regenerates T-PRAM: simulator steps are deterministic,
// so the interesting output is ns/op of the simulation itself plus the
// formula check in the pram tests; here we benchmark simulator throughput.
func BenchmarkPRAMTree(b *testing.B) {
	for _, n := range []int{256, 1024} {
		xs := dataset(gen.Random, int64(n), 1000)
		b.Run(fmt.Sprintf("carryfree/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pram.TreeSum(xs, 32, pram.EREW); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("carrypropagate/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pram.TreeSumCarryPropagate(xs, 32, pram.EREW); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAdaptive regenerates T-COND: the condition-number-sensitive
// algorithm against difficulty.
func BenchmarkAdaptive(b *testing.B) {
	for _, d := range gen.AllDists {
		xs := dataset(d, 1<<17, 2000)
		b.Run(d.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SumAdaptive(xs, core.Options{})
			}
		})
	}
}

// BenchmarkExtMem regenerates T-EM at bench scale.
func BenchmarkExtMem(b *testing.B) {
	xs := dataset(gen.Random, 1<<16, 800)
	b.Run("ScanSum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := extmem.NewModel(256, 4096)
			if _, err := extmem.ScanSum(m, extmem.FromSlice(m, xs), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SortSum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := extmem.NewModel(256, 4096)
			if _, err := extmem.SortSum(m, extmem.FromSlice(m, xs), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCarryFree regenerates T-ABL1's substance as a micro-benchmark:
// Lemma 1 merge vs carry-propagating merge of full-range accumulators.
func BenchmarkCarryFree(b *testing.B) {
	xs := dataset(gen.Random, 1<<14, 2000)
	mkDense := func() *accum.Window {
		d := accum.NewFullWindow(0)
		d.AddSlice(xs)
		d.Regularize()
		return d
	}
	b.Run("Lemma1Merge", func(b *testing.B) {
		dst, src := mkDense(), mkDense()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst.AddRegularized(src)
		}
	})
	b.Run("CarryPropagateMerge", func(b *testing.B) {
		dst := accum.NewSmall()
		src := accum.NewSmall()
		dst.AddSlice(xs)
		src.AddSlice(xs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst.Merge(src)
		}
	})
	b.Run("MergeSparse", func(b *testing.B) {
		w := accum.NewWindow(0)
		w.AddSlice(xs)
		s := w.ToSparse()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			accum.MergeSparse(s, s)
		}
	})
}

// BenchmarkRadixSweep regenerates T-ABL2: accumulate throughput by width.
func BenchmarkRadixSweep(b *testing.B) {
	xs := dataset(gen.Random, 1<<16, 1500)
	for _, w := range []uint{8, 16, 24, 32} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			a := accum.NewWindow(w)
			b.SetBytes(8 << 16)
			for i := 0; i < b.N; i++ {
				a.Reset()
				a.AddSlice(xs)
			}
		})
	}
}

// BenchmarkCombinerAblation regenerates T-ABL3.
func BenchmarkCombinerAblation(b *testing.B) {
	xs := dataset(gen.Random, 1<<18, 800)
	for _, noCombine := range []bool{false, true} {
		name := "combine"
		if noCombine {
			name = "nocombine"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mapreduce.Run(xs, mapreduce.Config{
					Workers: 8, SplitSize: 1 << 14, NoCombine: noCombine,
				})
			}
		})
	}
}

// BenchmarkSequential regenerates T-SEQ: every sequential method on the
// Random dataset.
func BenchmarkSequential(b *testing.B) {
	xs := dataset(gen.Random, 1<<18, 2000)
	scratch := make([]float64, len(xs))
	methods := []struct {
		name string
		f    func([]float64) float64
	}{
		{"naive", baseline.Naive},
		{"kahan", baseline.Kahan},
		{"neumaier", baseline.Neumaier},
		{"pairwise", baseline.Pairwise},
		{"iFastSum", func(v []float64) float64 { copy(scratch, v); return baseline.IFastSumInPlace(scratch) }},
		{"dense-acc", core.Sum},
		{"sparse-acc", func(v []float64) float64 { return core.SumEngine(core.EngineSparse, v) }},
		{"small-acc", func(v []float64) float64 { s := accum.NewSmall(); s.AddSlice(v); return s.Round() }},
	}
	for _, m := range methods {
		b.Run(m.name, func(b *testing.B) {
			b.SetBytes(int64(8 * len(xs)))
			for i := 0; i < b.N; i++ {
				m.f(xs)
			}
		})
	}
}

// BenchmarkAddSlice measures the block-structured bulk accumulation path
// per representation against the scalar per-element loop it replaced, on
// a wide exponent distribution (general three-digit scatter) and a narrow
// one (every representation runs the same lane pass at the canonical width).
// The block/scalar pairs make each path's contribution individually
// visible; see DESIGN.md §3d.
func BenchmarkAddSlice(b *testing.B) {
	const n = 1 << 16
	type acc interface {
		Add(float64)
		AddSlice([]float64)
		Reset()
	}
	dists := []struct {
		name string
		xs   []float64
	}{
		{"wide", dataset(gen.Random, n, 2000)},
		{"narrow", dataset(gen.Random, n, 8)},
	}
	reps := []struct {
		name string
		mk   func() acc
	}{
		{"dense", func() acc { return accum.NewFullWindow(0) }},
		{"small", func() acc { return accum.NewSmall() }},
		{"window", func() acc { return accum.NewWindow(0) }},
	}
	for _, rep := range reps {
		for _, d := range dists {
			a := rep.mk()
			b.Run(fmt.Sprintf("%s/%s/block", rep.name, d.name), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(8 * n)
				for i := 0; i < b.N; i++ {
					a.Reset()
					a.AddSlice(d.xs)
				}
			})
			b.Run(fmt.Sprintf("%s/%s/scalar", rep.name, d.name), func(b *testing.B) {
				b.SetBytes(8 * n)
				for i := 0; i < b.N; i++ {
					a.Reset()
					for _, x := range d.xs {
						a.Add(x)
					}
				}
			})
		}
	}

	// float32 narrow-lane mode: the single-word lane pass (lane) against
	// widening to float64 and running the two-word pass (widen). δ stays
	// inside the binary32 exponent range so no value overflows to +Inf.
	xs32 := make([]float32, n)
	for i, x := range dataset(gen.Random, n, 60) {
		xs32[i] = float32(x)
	}
	d32 := accum.NewFullWindow(0)
	buf := make([]float64, n)
	b.Run("dense/f32/lane", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(4 * n)
		for i := 0; i < b.N; i++ {
			d32.Reset()
			d32.AddSlice32(xs32)
		}
	})
	b.Run("dense/f32/widen", func(b *testing.B) {
		b.SetBytes(4 * n)
		for i := 0; i < b.N; i++ {
			d32.Reset()
			for j, x := range xs32 {
				buf[j] = float64(x)
			}
			d32.AddSlice(buf)
		}
	})
}

// sumSink keeps BenchmarkSumSizes' results alive.
var sumSink float64

// BenchmarkSumSizes times the sequential core.Sum against parsum.Sum at
// every power of two from 2^10 to 2^22 values (Random, δ = 2000).
// parsum.Sum runs the same sequential code under two grains (2^15 values)
// and splits longer inputs across up to GOMAXPROCS workers, so the
// sizes either side of the split show whether the grain is right.
// DESIGN.md §3's crossover table comes from this benchmark.
func BenchmarkSumSizes(b *testing.B) {
	all := dataset(gen.Random, 1<<22, 2000)
	sums := []struct {
		name string
		f    func([]float64) float64
	}{{"seq", core.Sum}, {"parsum", parsum.Sum}}
	for e := 10; e <= 22; e++ {
		xs := all[:1<<e]
		for _, s := range sums {
			b.Run(fmt.Sprintf("n=2^%d/%s", e, s.name), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(8 * len(xs)))
				for i := 0; i < b.N; i++ {
					sumSink = s.f(xs)
				}
			})
		}
	}
}

// BenchmarkPublicAPI covers the exported surface.
func BenchmarkPublicAPI(b *testing.B) {
	xs := dataset(gen.Anderson, 1<<18, 1000)
	b.Run("Sum", func(b *testing.B) {
		b.SetBytes(int64(8 * len(xs)))
		for i := 0; i < b.N; i++ {
			parsum.Sum(xs)
		}
	})
	b.Run("SumParallel", func(b *testing.B) {
		b.SetBytes(int64(8 * len(xs)))
		for i := 0; i < b.N; i++ {
			parsum.SumParallel(xs, parsum.Options{Workers: 4})
		}
	})
	b.Run("Accumulator/Add", func(b *testing.B) {
		a := parsum.NewAccumulator()
		for i := 0; i < b.N; i++ {
			a.Add(xs[i&(len(xs)-1)])
		}
	})
}

// TestBenchHarnessSmoke keeps the figure harness itself under test: a tiny
// end-to-end run of every table generator.
func TestBenchHarnessSmoke(t *testing.T) {
	cfg := bench.Defaults()
	cfg.SplitSize = 1 << 12
	for _, tb := range bench.Figure1([]int64{10_000}, 500, cfg) {
		checkTable(t, tb)
	}
	for _, tb := range bench.Figure2(10_000, []int{10, 500}, cfg) {
		checkTable(t, tb)
	}
	for _, tb := range bench.Figure3(10_000, 500, []int{1, 4}, cfg) {
		checkTable(t, tb)
	}
	checkTable(t, bench.PRAMTable([]int{16, 64}, 32))
	checkTable(t, bench.CondTable(500, []int{0, 200}))
	checkTable(t, bench.EMTable([]int64{2000}, 64, 512))
	checkTable(t, bench.CarryTable([]uint{16, 32}, 32))
	checkTable(t, bench.RadixTable([]uint{16, 32}, 10_000))
	checkTable(t, bench.SigmaTable(10_000, []int{10, 500}))
	checkTable(t, bench.CombinerTable(10_000, cfg))
	for _, tb := range bench.SeqTable(10_000, 500) {
		checkTable(t, tb)
	}
}

func checkTable(t *testing.T, tb bench.Table) {
	t.Helper()
	if len(tb.Rows) == 0 {
		t.Fatalf("%s: empty table", tb.Title)
	}
	for _, note := range tb.Notes {
		if len(note) >= 8 && note[:8] == "MISMATCH" {
			t.Fatalf("%s: %s", tb.Title, note)
		}
	}
	if s := tb.Format(); len(s) == 0 {
		t.Fatalf("%s: empty formatting", tb.Title)
	}
	for _, r := range tb.Rows {
		for _, series := range tb.Series {
			if v, ok := r.Values[series]; !ok || v == "" {
				t.Fatalf("%s: row %s missing series %s", tb.Title, r.X, series)
			}
		}
	}
}
