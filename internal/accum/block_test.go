package accum

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Differential tests for the bulk lane-cache paths (lanes.go): on every
// input class, AddSlice/SubSlice must leave each representation in a
// state bit-identical to the scalar Add/Sub oracle loop — compared on the
// canonical (regularized) digit string, the out-of-band special
// multiplicities, and the rounded bits.

// blockCases are the adversarial input classes the bulk paths must agree
// with the scalar oracle on, each built at several lengths so blocks split
// at every boundary shape (empty, sub-block, exact multiple, remainder).
func blockCases(t *testing.T) map[string][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	lens := []int{0, 1, 3, 255, 256, 257, 1000}
	cases := map[string][]float64{}
	add := func(name string, n int, gen func() float64) {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = gen()
		}
		cases[name] = xs
	}
	for _, n := range lens {
		// Wide exponent spread: scatter path.
		add(tname("wide", n), n, func() float64 {
			return math.Ldexp(rng.Float64()*2-1, rng.Intn(1200)-600)
		})
		// Narrow spread: the exponent-window lane path.
		add(tname("narrow", n), n, func() float64 {
			return math.Ldexp(rng.Float64()*2-1, rng.Intn(4))
		})
		// Zeros of both signs mixed into a narrow block.
		add(tname("zeros", n), n, func() float64 {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return math.Copysign(0, -1)
			}
			return math.Ldexp(rng.Float64()*2-1, rng.Intn(3))
		})
		// Denormals, alone and mixed with small normals.
		add(tname("denormal", n), n, func() float64 {
			v := math.Float64frombits(uint64(rng.Int63()) & (1<<52 - 1))
			if rng.Intn(2) == 0 {
				v = -v
			}
			if rng.Intn(3) == 0 {
				v = math.Ldexp(rng.Float64(), -1022)
			}
			return v
		})
		// Specials sprinkled into finite data: blocks divert out of line.
		add(tname("special", n), n, func() float64 {
			switch rng.Intn(8) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			case 2:
				return math.NaN()
			}
			return math.Ldexp(rng.Float64()*2-1, rng.Intn(600)-300)
		})
		// Raw random bit patterns: everything at once.
		add(tname("bits", n), n, func() float64 {
			return math.Float64frombits(rng.Uint64())
		})
		// Extremes: near-overflow magnitudes and the subnormal floor.
		add(tname("extreme", n), n, func() float64 {
			switch rng.Intn(4) {
			case 0:
				return math.MaxFloat64 * (rng.Float64()*2 - 1)
			case 1:
				return math.SmallestNonzeroFloat64 * float64(rng.Intn(5)-2)
			}
			return math.Ldexp(rng.Float64()*2-1, rng.Intn(2040)-1070)
		})
	}
	return cases
}

func tname(kind string, n int) string {
	return fmt.Sprintf("%s/%d", kind, n)
}

// splitSlices applies bulk adds of xs (in two arbitrary pieces, exercising
// block-boundary splits) followed by bulk deletes of the second piece's
// reverse — a mixed add/sub history.
func splitSlices(xs []float64) (a, b, sub []float64) {
	p := len(xs) / 3
	a, b = xs[:p], xs[p:]
	sub = make([]float64, 0, len(b)/2)
	for i := len(b) - 1; i >= 0; i -= 2 {
		sub = append(sub, b[i])
	}
	return a, b, sub
}

func TestBlockVsScalarDense(t *testing.T) {
	for _, w := range []uint{8, 20, 32} {
		for name, xs := range blockCases(t) {
			a, b, sub := splitSlices(xs)
			blk := NewFullWindow(w)
			blk.AddSlice(a)
			blk.AddSlice(b)
			blk.SubSlice(sub)

			ora := NewFullWindow(w)
			for _, x := range xs {
				ora.Add(x)
			}
			for _, x := range sub {
				ora.Sub(x)
			}

			blk.Regularize()
			ora.Regularize()
			if !slices.Equal(blk.win, ora.win) || blk.sp != ora.sp {
				t.Fatalf("W=%d %s: block path state diverges from scalar oracle\nblock:  %v\nscalar: %v", w, name, blk, ora)
			}
			if g, want := blk.Round(), ora.Round(); math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("W=%d %s: Round %x != scalar %x", w, name, math.Float64bits(g), math.Float64bits(want))
			}
		}
	}
}

func TestBlockVsScalarSmall(t *testing.T) {
	for name, xs := range blockCases(t) {
		a, b, sub := splitSlices(xs)
		blk := NewSmall()
		blk.AddSlice(a)
		blk.AddSlice(b)
		blk.SubSlice(sub)

		ora := NewSmall()
		for _, x := range xs {
			ora.Add(x)
		}
		for _, x := range sub {
			ora.Sub(x)
		}

		blk.Propagate()
		ora.Propagate()
		if !slices.Equal(blk.dig, ora.dig) || blk.sp != ora.sp {
			t.Fatalf("%s: small block path state diverges from scalar oracle", name)
		}
		if g, want := blk.Round(), ora.Round(); math.Float64bits(g) != math.Float64bits(want) {
			t.Fatalf("%s: Round %x != scalar %x", name, math.Float64bits(g), math.Float64bits(want))
		}
	}
}

func TestBlockVsScalarWindow(t *testing.T) {
	for _, w := range []uint{8, 20, 32} {
		for name, xs := range blockCases(t) {
			a, b, sub := splitSlices(xs)
			blk := NewWindow(w)
			blk.AddSlice(a)
			blk.AddSlice(b)
			blk.SubSlice(sub)

			ora := NewWindow(w)
			for _, x := range xs {
				ora.Add(x)
			}
			for _, x := range sub {
				ora.Sub(x)
			}

			// The two paths may grow the window differently; ToSparse is
			// the canonical (regularized, zero-skipping) view.
			bs, os := blk.ToSparse(), ora.ToSparse()
			if !slices.Equal(bs.idx, os.idx) || !slices.Equal(bs.dig, os.dig) || bs.sp != os.sp {
				t.Fatalf("W=%d %s: window block path state diverges from scalar oracle\nblock:  %v\nscalar: %v", w, name, bs, os)
			}
			if g, want := blk.Round(), ora.Round(); math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("W=%d %s: Round %x != scalar %x", w, name, math.Float64bits(g), math.Float64bits(want))
			}
		}
	}
}

// TestLaneFastPathEngages pins the dispatch policy through the lazy-add
// budget: a bulk insert at the canonical width — wide or narrow exponent
// spread alike — lands in the call's lane cache and reaches the digits as
// one four-add drain per call (one more per mid-call drain when the lane
// budget saturates), while non-canonical widths take the scalar path and
// charge one add per element.
func TestLaneFastPathEngages(t *testing.T) {
	wide := make([]float64, 1000)
	for i := range wide {
		wide[i] = math.Ldexp(1+float64(i%7)/8, (i%40)*20-400)
	}
	d := NewFullWindow(0)
	d.AddSlice(wide)
	if d.nAdd != 4 {
		t.Fatalf("wide slice charged %d lazy digit adds, want 4 (one lane drain)", d.nAdd)
	}
	d.SubSlice32([]float32{1, 2, 3})
	if d.nAdd != 8 {
		t.Fatalf("second bulk call left %d lazy digit adds, want 8 (two lane drains)", d.nAdd)
	}

	d8 := NewFullWindow(8)
	d8.AddSlice(wide)
	if d8.nAdd != int64(len(wide)) {
		t.Fatalf("non-canonical width charged %d lazy digit adds, want %d (scalar path)", d8.nAdd, len(wide))
	}

	// Specials divert only themselves: the finite elements stay in the
	// lane cache, the special lands out of band via the repair pass.
	mixed := []float64{1.5, math.Inf(1), 2.5, math.NaN()}
	dm := NewFullWindow(0)
	dm.AddSlice(mixed)
	if dm.nAdd != 4 {
		t.Fatalf("mixed slice charged %d lazy digit adds, want 4", dm.nAdd)
	}
	if dm.sp.posInf != 1 || dm.sp.nan != 1 {
		t.Fatalf("specials not repaired out of band: %+v", dm.sp)
	}
	if g := dm.Round(); !math.IsNaN(g) {
		t.Fatalf("Round after mixed specials = %v, want NaN", g)
	}

	// A saturated lane budget drains mid-call: 1000 elements at 256 per
	// drain is three mid-call drains plus the final one.
	forceLaneBudget(t, 256)
	ds := NewFullWindow(0)
	ds.AddSlice(wide)
	if ds.nAdd != 16 {
		t.Fatalf("budget-256 slice charged %d lazy digit adds, want 16 (four drains)", ds.nAdd)
	}
}

// forceLaneBudget lowers the lane-cache add budget so flushes fire
// mid-slice at test scale, restoring it on cleanup.
func forceLaneBudget(t *testing.T, n int64) {
	t.Helper()
	old := laneMaxAdds
	laneMaxAdds = n
	t.Cleanup(func() { laneMaxAdds = old })
}

// TestLaneFlushBoundaries is the flush-boundary differential layer: with
// the lane budget forced down to a handful of elements, every bulk insert
// crosses many budget-exhaustion flushes mid-slice, Add and Sub alternate
// across flushes, and specials land between flushes — and the final state
// must still be bit-identical to the scalar oracle on all three
// representations.
func TestLaneFlushBoundaries(t *testing.T) {
	for _, budget := range []int64{1, 3, 7, 100, 256, 257} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			forceLaneBudget(t, budget)
			for name, xs := range blockCases(t) {
				a, b, sub := splitSlices(xs)

				bd, od := NewFullWindow(0), NewFullWindow(0)
				bs, os := NewSmall(), NewSmall()
				bw, ow := NewWindow(0), NewWindow(0)
				for _, acc := range []interface {
					AddSlice([]float64)
					SubSlice([]float64)
				}{bd, bs, bw} {
					// Alternate Add and Sub so direction changes straddle
					// budget-exhaustion flushes.
					acc.AddSlice(a)
					acc.SubSlice(sub)
					acc.AddSlice(b)
					acc.SubSlice(sub)
					acc.AddSlice(sub)
				}
				for _, x := range xs {
					od.Add(x)
					os.Add(x)
					ow.Add(x)
				}
				for _, x := range sub {
					od.Sub(x)
					os.Sub(x)
					ow.Sub(x)
				}

				bd.Regularize()
				od.Regularize()
				if !slices.Equal(bd.win, od.win) || bd.sp != od.sp {
					t.Fatalf("%s: dense flush-boundary state diverges from scalar oracle", name)
				}
				bs.Propagate()
				os.Propagate()
				if !slices.Equal(bs.dig, os.dig) || bs.sp != os.sp {
					t.Fatalf("%s: small flush-boundary state diverges from scalar oracle", name)
				}
				bsp, osp := bw.ToSparse(), ow.ToSparse()
				if !slices.Equal(bsp.idx, osp.idx) || !slices.Equal(bsp.dig, osp.dig) || bsp.sp != osp.sp {
					t.Fatalf("%s: window flush-boundary state diverges from scalar oracle", name)
				}
			}
		})
	}
}

// blockCases32 are the float32 analogues of blockCases for the
// narrow-lane AddSlice32 path.
func blockCases32(t *testing.T) map[string][]float32 {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	cases := map[string][]float32{}
	add := func(name string, n int, gen func() float32) {
		xs := make([]float32, n)
		for i := range xs {
			xs[i] = gen()
		}
		cases[name] = xs
	}
	for _, n := range []int{0, 1, 3, 255, 256, 257, 1000} {
		add(tname("wide32", n), n, func() float32 {
			return float32(math.Ldexp(rng.Float64()*2-1, rng.Intn(250)-125))
		})
		add(tname("denormal32", n), n, func() float32 {
			v := math.Float32frombits(rng.Uint32() & 0x7FFFFF)
			if rng.Intn(2) == 0 {
				v = -v
			}
			return v
		})
		add(tname("special32", n), n, func() float32 {
			switch rng.Intn(8) {
			case 0:
				return float32(math.Inf(1))
			case 1:
				return float32(math.Inf(-1))
			case 2:
				return float32(math.NaN())
			case 3:
				return float32(math.Copysign(0, -1))
			}
			return float32(math.Ldexp(rng.Float64()*2-1, rng.Intn(60)-30))
		})
		add(tname("bits32", n), n, func() float32 {
			return math.Float32frombits(rng.Uint32())
		})
		add(tname("extreme32", n), n, func() float32 {
			switch rng.Intn(4) {
			case 0:
				return math.MaxFloat32 * float32(rng.Float64()*2-1)
			case 1:
				return math.SmallestNonzeroFloat32 * float32(rng.Intn(5)-2)
			}
			return float32(math.Ldexp(rng.Float64()*2-1, rng.Intn(276)-149))
		})
	}
	return cases
}

// TestLane32VsScalar: AddSlice32/SubSlice32 must leave every
// representation bit-identical to the scalar float64 oracle (every
// float32 is exactly a float64, so Add(float64(x)) is the ground truth),
// at the default budget and across forced mid-slice flushes.
func TestLane32VsScalar(t *testing.T) {
	for _, budget := range []int64{0, 5, 256} { // 0 = default
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			if budget > 0 {
				forceLaneBudget(t, budget)
			}
			for name, xs := range blockCases32(t) {
				p := len(xs) / 3
				sub := xs[:p]

				bd, od := NewFullWindow(0), NewFullWindow(0)
				bs, os := NewSmall(), NewSmall()
				bw, ow := NewWindow(0), NewWindow(0)
				for _, acc := range []interface {
					AddSlice32([]float32)
					SubSlice32([]float32)
				}{bd, bs, bw} {
					acc.AddSlice32(xs[:p])
					acc.AddSlice32(xs[p:])
					acc.SubSlice32(sub)
				}
				for _, x := range xs {
					od.Add(float64(x))
					os.Add(float64(x))
					ow.Add(float64(x))
				}
				for _, x := range sub {
					od.Sub(float64(x))
					os.Sub(float64(x))
					ow.Sub(float64(x))
				}

				bd.Regularize()
				od.Regularize()
				if !slices.Equal(bd.win, od.win) || bd.sp != od.sp {
					t.Fatalf("%s: dense f32 lane path diverges from scalar oracle\nlane:   %v\nscalar: %v", name, bd, od)
				}
				bs.Propagate()
				os.Propagate()
				if !slices.Equal(bs.dig, os.dig) || bs.sp != os.sp {
					t.Fatalf("%s: small f32 lane path diverges from scalar oracle", name)
				}
				bsp, osp := bw.ToSparse(), ow.ToSparse()
				if !slices.Equal(bsp.idx, osp.idx) || !slices.Equal(bsp.dig, osp.dig) || bsp.sp != osp.sp {
					t.Fatalf("%s: window f32 lane path diverges from scalar oracle", name)
				}
				if g, want := bd.Round32(), od.Round32(); math.Float32bits(g) != math.Float32bits(want) {
					t.Fatalf("%s: Round32 %x != scalar %x", name, math.Float32bits(g), math.Float32bits(want))
				}
			}
		})
	}
}

// TestLanePendingConsumers: every consumer of an accumulator's value —
// Merge, AddNeg, Neg, Clone, MarshalBinary, IsZero, Digits, ToSparse,
// AddRegularized — sees everything a bulk call added, without an explicit
// Regularize in between: the call drains its lanes before returning.
func TestLanePendingConsumers(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = math.Ldexp(1+float64(i%9)/16, (i%50)*13-300)
	}

	// Merge with both sides dirty.
	a, b := NewFullWindow(0), NewFullWindow(0)
	a.AddSlice(xs[:200])
	b.AddSlice(xs[200:])
	a.Merge(b)
	want := NewFullWindow(0)
	for _, x := range xs {
		want.Add(x)
	}
	if g, w := a.Round(), want.Round(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("Merge with dirty lanes: %x != %x", math.Float64bits(g), math.Float64bits(w))
	}

	// AddNeg with both sides dirty cancels exactly.
	c, d := NewFullWindow(0), NewFullWindow(0)
	c.AddSlice(xs)
	d.AddSlice(xs)
	c.AddNeg(d)
	if !c.IsZero() {
		t.Fatal("AddNeg with dirty lanes did not cancel to zero")
	}

	// Neg of a dirty accumulator.
	e := NewFullWindow(0)
	e.AddSlice(xs)
	e.Neg()
	f := NewFullWindow(0)
	for _, x := range xs {
		f.Add(-x)
	}
	if g, w := e.Round(), f.Round(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("Neg with dirty lanes: %x != %x", math.Float64bits(g), math.Float64bits(w))
	}

	// Clone must copy pending lanes; mutating the clone leaves the
	// original intact.
	g := NewFullWindow(0)
	g.AddSlice(xs)
	h := g.Clone()
	h.AddSlice(xs)
	if gv, wv := g.Round(), want.Round(); math.Float64bits(gv) != math.Float64bits(wv) {
		t.Fatalf("Clone did not carry pending lanes: %x != %x", math.Float64bits(gv), math.Float64bits(wv))
	}

	// MarshalBinary round-trips the pending value.
	m := NewFullWindow(0)
	m.AddSlice(xs)
	blob := m.MarshalKind(KindDense)
	var back Window
	if err := back.UnmarshalKind(KindDense, blob); err != nil {
		t.Fatal(err)
	}
	if gv, wv := back.Round(), want.Round(); math.Float64bits(gv) != math.Float64bits(wv) {
		t.Fatalf("marshal with dirty lanes: %x != %x", math.Float64bits(gv), math.Float64bits(wv))
	}

	// AddRegularized regularizes a dirty side rather than reading stale
	// digits.
	p, q := NewFullWindow(0), NewFullWindow(0)
	p.AddSlice(xs[:100])
	p.Regularize()
	q.AddSlice(xs[100:])
	p.AddRegularized(q)
	if gv, wv := p.Round(), want.Round(); math.Float64bits(gv) != math.Float64bits(wv) {
		t.Fatalf("AddRegularized with dirty operand: %x != %x", math.Float64bits(gv), math.Float64bits(wv))
	}

	// Window: Merge/ToSparse with dirty lanes.
	wa, wb := NewWindow(0), NewWindow(0)
	wa.AddSlice(xs[:200])
	wb.AddSlice(xs[200:])
	wa.Merge(wb)
	if gv, wv := wa.Round(), want.Round(); math.Float64bits(gv) != math.Float64bits(wv) {
		t.Fatalf("Window.Merge with dirty lanes: %x != %x", math.Float64bits(gv), math.Float64bits(wv))
	}

	// Small: Merge with dirty lanes.
	sa, sb := NewSmall(), NewSmall()
	sa.AddSlice(xs[:200])
	sb.AddSlice(xs[200:])
	sa.Merge(sb)
	if gv, wv := sa.Round(), want.Round(); math.Float64bits(gv) != math.Float64bits(wv) {
		t.Fatalf("Small.Merge with dirty lanes: %x != %x", math.Float64bits(gv), math.Float64bits(wv))
	}
}

// TestLaneSlicesZeroAlloc asserts the bulk hot paths allocate nothing on
// any lane host: the lane cache lives on the call's stack and drains into
// the accumulator's existing digits.
func TestLaneSlicesZeroAlloc(t *testing.T) {
	xs := make([]float64, 4096)
	rng := rand.New(rand.NewSource(3))
	for i := range xs {
		xs[i] = math.Ldexp(rng.Float64()*2-1, rng.Intn(1000)-500)
	}
	xs32 := make([]float32, 4096)
	for i := range xs32 {
		xs32[i] = float32(rng.Float64()*2 - 1)
	}
	hosts := map[string]interface {
		AddSlice([]float64)
		SubSlice([]float64)
		AddSlice32([]float32)
		SubSlice32([]float32)
	}{"dense": NewFullWindow(0), "small": NewSmall(), "window": NewWindow(0)}
	for name, h := range hosts {
		h.AddSlice(xs) // grow a Window to its full range first
		for op, f := range map[string]func(){
			"AddSlice":   func() { h.AddSlice(xs) },
			"SubSlice":   func() { h.SubSlice(xs) },
			"AddSlice32": func() { h.AddSlice32(xs32) },
			"SubSlice32": func() { h.SubSlice32(xs32) },
		} {
			if avg := testing.AllocsPerRun(20, f); avg != 0 {
				t.Errorf("%s.%s allocates %.1f times per call, want 0", name, op, avg)
			}
		}
	}
}
