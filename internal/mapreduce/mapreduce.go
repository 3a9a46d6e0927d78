// Package mapreduce implements the paper's single-round MapReduce
// summation (Section 6) on an in-process engine that mirrors the Spark
// pipeline the paper used:
//
//	input splits (HDFS blocks) → map + combine on cluster workers
//	→ shuffle by reducer key → reduce → driver post-process.
//
// The combiner sums each split into one superaccumulator with the
// sequential algorithm of Section 3; reducers merge the superaccumulators
// assigned to their key; the driver merges the p reducer outputs and
// converts the final superaccumulator to a correctly rounded float64.
//
// # Cluster simulation
//
// The paper ran on a 32-core machine; this engine executes every task for
// real (and exactly), but decouples *execution* concurrency from the
// *modeled* cluster size: tasks run on at most GOMAXPROCS goroutines so
// per-task timing is clean, and a greedy list-scheduling simulation places
// the measured task durations onto cfg.Workers virtual workers. The
// resulting makespan (Stats.ClusterTime) is the modeled end-to-end time on
// a cfg.Workers-core cluster — the quantity Figures 1–3 plot — while
// Stats.MeasuredWall is the actual wall-clock spent. See DESIGN.md
// ("Substitutions") for why this preserves the paper's comparisons.
package mapreduce

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"parsum/internal/accum"
)

// AccKind selects the superaccumulator representation used by combiners and
// reducers.
type AccKind int

// The paper's two experimental variants.
const (
	SparseAcc AccKind = iota // sparse superaccumulator (the paper's method)
	SmallAcc                 // Neal-style small superaccumulator
)

// String names the variant as in the paper's figure legends.
func (k AccKind) String() string {
	switch k {
	case SparseAcc:
		return "Sparse Superaccumulator"
	case SmallAcc:
		return "Small Superaccumulator"
	}
	return fmt.Sprintf("AccKind(%d)", int(k))
}

// Config describes a job. The zero value of optional fields picks defaults.
type Config struct {
	// Workers is the modeled cluster size (the paper's "number of cores").
	Workers int
	// Reducers is the paper's p; 0 means Workers.
	Reducers int
	// SplitSize is the number of float64s per input split. The paper's
	// HDFS blocks are 128 MB = 16M doubles; the default is 1M so that
	// modest inputs still exercise multi-split behaviour.
	SplitSize int
	// Acc selects the accumulator representation.
	Acc AccKind
	// NoCombine disables the map-side combiner, shuffling raw elements to
	// reducers instead (the unoptimized Section 6.1 algorithm; ablation).
	NoCombine bool
	// Width is the digit width for Sparse accumulators (0 = default).
	Width uint
	// Seed drives the random reducer assignment r(x).
	Seed uint64
	// ExecParallelism caps the number of goroutines that actually execute
	// tasks (0 = GOMAXPROCS). Timing is per task, so the model is
	// insensitive to this; it exists for tests.
	ExecParallelism int
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return 1
}

func (c Config) reducers() int {
	if c.Reducers > 0 {
		return c.Reducers
	}
	return c.workers()
}

func (c Config) splitSize() int {
	if c.SplitSize > 0 {
		return c.SplitSize
	}
	return 1 << 20
}

func (c Config) exec() int {
	if c.ExecParallelism > 0 {
		return c.ExecParallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Stats reports what the job did and the modeled cluster timing.
type Stats struct {
	Splits         int
	Reducers       int
	ShuffleRecords int   // key-value pairs shuffled
	ShuffleBytes   int64 // encoded payload volume shuffled

	MapMakespan    time.Duration // modeled map+combine phase time
	ReduceMakespan time.Duration // modeled reduce phase time
	PostProcess    time.Duration // driver merge + final rounding (serial)
	MeasuredWall   time.Duration // actual wall-clock of the whole job

	MapTasks []time.Duration // measured time of each map task, by split

	FinalComponents int // σ of the final superaccumulator (sparse kinds)
}

// ClusterTime is the modeled end-to-end job time on the configured cluster:
// map makespan + reduce makespan + serial driver post-processing.
func (s Stats) ClusterTime() time.Duration {
	return s.MapMakespan + s.ReduceMakespan + s.PostProcess
}

// Result is a completed job.
type Result struct {
	Sum   float64
	Stats Stats
}

// Run executes the single-round MapReduce summation of xs under cfg and
// returns the correctly rounded exact sum with job statistics.
func Run(xs []float64, cfg Config) Result {
	start := time.Now()
	nSplits := (len(xs) + cfg.splitSize() - 1) / cfg.splitSize()
	if nSplits == 0 {
		nSplits = 1
	}
	p := cfg.reducers()

	var st Stats
	st.Splits = nSplits
	st.Reducers = p

	// --- Map + combine phase -------------------------------------------
	// One task per split. Each task produces payloads keyed by reducer.
	type keyed struct {
		key int
		pay payload
	}
	mapOut := make([][]keyed, nSplits)
	mapTasks := make([]func(), nSplits)
	mapDur := make([]time.Duration, nSplits)
	for i := 0; i < nSplits; i++ {
		i := i
		lo := i * cfg.splitSize()
		hi := lo + cfg.splitSize()
		if hi > len(xs) {
			hi = len(xs)
		}
		split := xs[lo:hi]
		mapTasks[i] = func() {
			t0 := time.Now()
			if cfg.NoCombine {
				// Shuffle raw elements: partition the split by per-element
				// random key.
				buckets := make([][]float64, p)
				for j, x := range split {
					k := int(splitmix(cfg.Seed^uint64(lo+j)*0x9E3779B97F4A7C15) % uint64(p))
					buckets[k] = append(buckets[k], x)
				}
				for k, b := range buckets {
					if len(b) > 0 {
						mapOut[i] = append(mapOut[i], keyed{k, payload{raw: b}})
					}
				}
			} else {
				pay := combine(split, cfg)
				k := int(splitmix(cfg.Seed+uint64(i)) % uint64(p))
				mapOut[i] = append(mapOut[i], keyed{k, pay})
			}
			mapDur[i] = time.Since(t0)
		}
	}
	runTasks(mapTasks, cfg.exec())
	st.MapTasks = mapDur
	st.MapMakespan = makespan(mapDur, cfg.workers())

	// --- Shuffle ---------------------------------------------------------
	byKey := make([][]payload, p)
	for _, out := range mapOut {
		for _, kv := range out {
			byKey[kv.key] = append(byKey[kv.key], kv.pay)
			st.ShuffleRecords++
			st.ShuffleBytes += int64(kv.pay.size())
		}
	}

	// --- Reduce phase ----------------------------------------------------
	redOut := make([]payload, p)
	redTasks := make([]func(), p)
	redDur := make([]time.Duration, p)
	for k := 0; k < p; k++ {
		k := k
		redTasks[k] = func() {
			t0 := time.Now()
			redOut[k] = reduce(byKey[k], cfg)
			redDur[k] = time.Since(t0)
		}
	}
	runTasks(redTasks, cfg.exec())
	st.ReduceMakespan = makespan(redDur, cfg.workers())

	// --- Driver post-process ---------------------------------------------
	t0 := time.Now()
	sum, comps := finish(redOut, cfg)
	st.PostProcess = time.Since(t0)
	st.FinalComponents = comps
	st.MeasuredWall = time.Since(start)
	return Result{Sum: sum, Stats: st}
}

// runTasks executes the tasks on up to par goroutines, pulling dynamically.
func runTasks(tasks []func(), par int) {
	if par > len(tasks) {
		par = len(tasks)
	}
	if par <= 1 {
		for _, t := range tasks {
			t()
		}
		return
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(tasks) {
					return
				}
				tasks[i]()
			}
		}()
	}
	wg.Wait()
}

// makespan models greedy dynamic scheduling (each of w workers pulls the
// next task when idle) of the measured task durations, in submission
// order: every task goes to the currently least-loaded worker. The result
// is the modeled phase duration on a w-worker cluster.
func makespan(durs []time.Duration, w int) time.Duration {
	if w < 1 {
		w = 1
	}
	load := make([]time.Duration, w)
	for _, d := range durs {
		min := 0
		for i := 1; i < w; i++ {
			if load[i] < load[min] {
				min = i
			}
		}
		load[min] += d
	}
	var max time.Duration
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	return max
}

// splitmix is the splitmix64 mixer (duplicated from internal/gen to keep
// the engine self-contained).
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// payload is a shuffle record: exactly one field is set.
type payload struct {
	sparse *accum.Sparse
	small  *accum.Small
	raw    []float64
}

func (p payload) size() int {
	switch {
	case p.sparse != nil:
		return p.sparse.EncodedSize()
	case p.small != nil:
		return p.small.EncodedSize()
	default:
		return 8 * len(p.raw)
	}
}

// combine runs the map-side combiner: the sequential exact summation of one
// split into a single superaccumulator (the paper's Section 6.2 combine).
func combine(split []float64, cfg Config) payload {
	switch cfg.Acc {
	case SparseAcc:
		w := accum.NewWindow(cfg.Width)
		w.AddSlice(split)
		return payload{sparse: w.ToSparse()}
	case SmallAcc:
		s := accum.NewSmall()
		s.AddSlice(split)
		return payload{small: s}
	}
	panic("mapreduce: unknown AccKind")
}

// reduce merges the payloads assigned to one reducer into a single payload.
// Raw payloads (NoCombine mode) are accumulated with the sequential exact
// algorithm; accumulator payloads merge (carry-free for the sparse kind).
func reduce(ps []payload, cfg Config) payload {
	switch cfg.Acc {
	case SparseAcc:
		var root *accum.Sparse
		var win *accum.Window
		for _, p := range ps {
			if p.raw != nil {
				if win == nil {
					win = accum.NewWindow(cfg.Width)
				}
				win.AddSlice(p.raw)
				continue
			}
			if root == nil {
				root = p.sparse
			} else {
				root = accum.MergeSparse(root, p.sparse)
			}
		}
		if win != nil {
			if s := win.ToSparse(); root == nil {
				root = s
			} else {
				root = accum.MergeSparse(root, s)
			}
		}
		if root == nil {
			root = accum.NewSparse(cfg.Width)
		}
		return payload{sparse: root}
	case SmallAcc:
		root := accum.NewSmall()
		for _, p := range ps {
			if p.raw != nil {
				root.AddSlice(p.raw)
			} else {
				root.Merge(p.small)
			}
		}
		return payload{small: root}
	}
	panic("mapreduce: unknown AccKind")
}

// finish merges the reducer outputs on the driver and rounds once.
func finish(ps []payload, cfg Config) (float64, int) {
	switch cfg.Acc {
	case SparseAcc:
		var root *accum.Sparse
		for _, p := range ps {
			if p.sparse == nil {
				continue
			}
			if root == nil {
				root = p.sparse
			} else {
				root = accum.MergeSparse(root, p.sparse)
			}
		}
		if root == nil {
			return 0, 0
		}
		return root.Round(), root.Len()
	case SmallAcc:
		root := accum.NewSmall()
		for _, p := range ps {
			if p.small != nil {
				root.Merge(p.small)
			}
		}
		return root.Round(), 0
	}
	panic("mapreduce: unknown AccKind")
}
