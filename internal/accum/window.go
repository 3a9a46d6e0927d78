package accum

import "parsum/internal/fpnum"

// Window is a streaming builder for sparse superaccumulators: a contiguous
// digit window covering only the active index range seen so far, grown on
// demand. It gives Dense-like O(1) amortized accumulation while keeping
// memory proportional to the data's exponent spread (the paper's σ(n)),
// which is what makes the MapReduce combiner cheap when δ is small.
type Window struct {
	w      uint
	base   int // digit index of win[0]; meaningful only when len(win) > 0
	win    []int64
	nAdd   int
	maxAdd int
	sp     special
}

// NewWindow returns an empty window accumulator of width w
// (0 means DefaultWidth).
func NewWindow(w uint) *Window {
	w = widthOrDefault(w)
	return &Window{w: w, maxAdd: maxLazyAdds(w)}
}

// Width returns the digit width W.
func (a *Window) Width() uint { return a.w }

// Span returns the number of digits the active window currently covers.
func (a *Window) Span() int {
	return len(a.win)
}

// Reset empties the accumulator, retaining its storage.
func (a *Window) Reset() {
	a.win = a.win[:0]
	a.nAdd = 0
	a.sp = special{}
}

// Add accumulates x exactly, growing the window as needed.
func (a *Window) Add(x float64) {
	c := fpnum.Classify(x)
	if c == fpnum.ClassZero {
		return
	}
	if c != fpnum.ClassFinite {
		a.sp.note(c)
		return
	}
	if a.nAdd >= a.maxAdd {
		a.regularize()
	}
	a.nAdd++
	neg, m, e := fpnum.Decompose(x)
	a.addChunks(neg, m, e)
}

// addChunks splits the significand m·2^e into W-bit digit-aligned chunks
// and adds them (subtracts when neg) to the window, growing it as needed.
func (a *Window) addChunks(neg bool, m uint64, e int) {
	k := floorDiv(e, int(a.w))
	off := uint(e - k*int(a.w))
	lo := m << off
	hi := uint64(0)
	if off != 0 {
		hi = m >> (64 - off)
	}
	// The shifted significand spans at most ⌈84/W⌉+1 digits.
	nd := int(84/a.w) + 2
	a.ensure(k, k+nd-1)
	i := k - a.base
	mask := uint64(1)<<a.w - 1
	if neg {
		for lo != 0 || hi != 0 {
			a.win[i] -= int64(lo & mask)
			lo = lo>>a.w | hi<<(64-a.w)
			hi >>= a.w
			i++
		}
		return
	}
	for lo != 0 || hi != 0 {
		a.win[i] += int64(lo & mask)
		lo = lo>>a.w | hi<<(64-a.w)
		hi >>= a.w
		i++
	}
}

// AddSlice accumulates every element of xs exactly. At the canonical
// digit width it runs the carry-save lane pass of lanes.go, sharing the
// L1-resident lane cache machinery with Dense and Small; the active
// window grows to cover the drained digit range once per drain, so a
// bulk insert never grows or classifies per element. The result is
// bit-identical to calling Add per element.
func (a *Window) AddSlice(xs []float64) {
	if a.w != blockWidth {
		for _, x := range xs {
			a.Add(x)
		}
		return
	}
	laneSlice(a, xs, 0)
}

// AddSlice32 accumulates every element of a float32 slice exactly via the
// narrow-lane float32 pass.
func (a *Window) AddSlice32(xs []float32) {
	if a.w != blockWidth {
		for _, x := range xs {
			a.Add(float64(x))
		}
		return
	}
	laneSlice32(a, xs, 0)
}

// SubSlice32 deletes every element of a float32 slice exactly — the group
// inverse of AddSlice32.
func (a *Window) SubSlice32(xs []float32) {
	if a.w != blockWidth {
		for _, x := range xs {
			a.Sub(float64(x))
		}
		return
	}
	laneSlice32(a, xs, 1)
}

// laneDigits is the laneHost drain target (W = 32): the window grows once
// to cover the drained range.
func (a *Window) laneDigits(lo, hi int) []int64 {
	if a.nAdd+4 > a.maxAdd {
		a.regularize()
	}
	a.nAdd += 4
	a.ensure(lo, hi)
	return a.win[lo-a.base : hi-a.base+1]
}

// Sub deletes x from the accumulated sum exactly — the group inverse of
// Add: the digit updates are the sign-flipped chunks of x. Non-finite
// values are deleted from the out-of-band multiset (see Dense.Sub).
func (a *Window) Sub(x float64) {
	c := fpnum.Classify(x)
	if c == fpnum.ClassZero {
		return
	}
	if c != fpnum.ClassFinite {
		a.sp.unnote(c)
		return
	}
	if a.nAdd >= a.maxAdd {
		a.regularize()
	}
	a.nAdd++
	neg, m, e := fpnum.Decompose(x)
	a.addChunks(!neg, m, e)
}

// SubSlice deletes every element of xs exactly, through the same lane
// pass as AddSlice with the direction sign folded into the update mask.
func (a *Window) SubSlice(xs []float64) {
	if a.w != blockWidth {
		for _, x := range xs {
			a.Sub(x)
		}
		return
	}
	laneSlice(a, xs, 1)
}

// Neg negates the represented value in place: every window digit flips
// sign and the infinity multiplicities swap. The lazy-add budget is
// unchanged (the digit bound is symmetric).
func (a *Window) Neg() {
	for i := range a.win {
		a.win[i] = -a.win[i]
	}
	a.sp.negate()
}

// AddNeg subtracts o's exact contents from a — the group inverse of Merge,
// leaving o unmodified. Special multiplicities are subtracted, not
// sign-swapped (AddNeg deletes o's summands). Widths must match.
func (a *Window) AddNeg(o *Window) {
	if a.w != o.w {
		panic("accum: width mismatch in Window.AddNeg")
	}
	a.sp.unmerge(o.sp)
	if len(o.win) == 0 {
		return
	}
	if a.nAdd+o.nAdd+1 > a.maxAdd {
		a.regularize() // o.nAdd ≤ maxAdd by construction, so this suffices
	}
	a.ensure(o.base, o.base+len(o.win)-1)
	off := o.base - a.base
	for i, v := range o.win {
		a.win[off+i] -= v
	}
	a.nAdd += o.nAdd + 1
}

// ensure grows the window to cover digit indices [lo, hi], padding a little
// on each side to amortize regrowth.
func (a *Window) ensure(lo, hi int) {
	const pad = 4
	if len(a.win) == 0 {
		a.base = lo - pad
		a.win = make([]int64, hi-lo+1+2*pad)
		return
	}
	if lo >= a.base && hi < a.base+len(a.win) {
		return
	}
	nb := a.base
	if lo < nb {
		nb = lo - pad
	}
	top := a.base + len(a.win) - 1
	if hi > top {
		top = hi + pad
	}
	nw := make([]int64, top-nb+1)
	copy(nw[a.base-nb:], a.win)
	a.base, a.win = nb, nw
}

// regularize runs the signed-carry pass over the window; a final carry
// extends the window by as many digits as it needs. Every resulting digit
// is in [0, R−1] except possibly a single trailing −1 when the represented
// value is negative (all within the (α,β) range).
func (a *Window) regularize() {
	if len(a.win) == 0 {
		a.nAdd = 0
		return
	}
	mask := int64(1)<<a.w - 1
	var c int64
	for i := range a.win {
		v := a.win[i] + c
		a.win[i] = v & mask
		c = v >> a.w
	}
	for c != 0 {
		if c == -1 {
			// Arithmetic shift of a negative carry converges to −1, which
			// is the signed top digit of a negative value.
			a.win = append(a.win, -1)
			break
		}
		a.win = append(a.win, c&mask)
		c >>= a.w
	}
	// A negative total propagates the −1 carry through every padded zero
	// digit, leaving a run (R−1, R−1, …, −1) at the top. Collapse it back
	// to a single −1 digit (−R^t + Σ(R−1)R^j = −R^s), so the active range
	// never exceeds the content range by more than one digit.
	if top := len(a.win) - 1; top >= 0 && a.win[top] == -1 {
		s := top
		for s > 0 && a.win[s-1] == mask {
			s--
		}
		if s < top {
			a.win[s] = -1
			a.win = a.win[:s+1]
		}
	}
	a.nAdd = 0
}

// Merge adds o into a exactly, growing the window to cover o's active
// range. Like Dense.Merge it is a digit-wise addition that regularizes
// first only when the combined lazy-add budget would overflow; o is not
// modified. Widths must match.
func (a *Window) Merge(o *Window) {
	if a.w != o.w {
		panic("accum: width mismatch in Window.Merge")
	}
	a.sp.merge(o.sp)
	if len(o.win) == 0 {
		return
	}
	if a.nAdd+o.nAdd+1 > a.maxAdd {
		a.regularize() // o.nAdd ≤ maxAdd by construction, so this suffices
	}
	a.ensure(o.base, o.base+len(o.win)-1)
	off := o.base - a.base
	for i, v := range o.win {
		a.win[off+i] += v
	}
	a.nAdd += o.nAdd + 1
}

// Clone returns an independent copy of a.
func (a *Window) Clone() *Window {
	c := *a
	c.win = append([]int64(nil), a.win...)
	return &c
}

// ToSparse converts the window to the canonical sparse representation,
// skipping zero digits. The window is regularized as a side effect.
func (a *Window) ToSparse() *Sparse {
	a.regularize()
	s := &Sparse{w: a.w, sp: a.sp}
	for i, v := range a.win {
		if v != 0 {
			s.idx = append(s.idx, int32(a.base+i))
			s.dig = append(s.dig, v)
		}
	}
	return s
}

// Round returns the correctly rounded float64 value of the exact sum.
func (a *Window) Round() float64 {
	if v, ok := a.sp.resolved(); ok {
		return v
	}
	if len(a.win) == 0 {
		return 0
	}
	return roundDigits(a.win, a.base, a.w)
}
