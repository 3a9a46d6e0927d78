package accum

import (
	"fmt"

	"parsum/internal/fpnum"
)

// Window is the package's carry-free digit store: an (α,β)-regularized
// superaccumulator, α = β = R−1 for radix R = 2^W, whose digits cover one
// contiguous index range — the active range of the data seen so far,
// grown on demand. The value it represents is
//
//	Σ_i win[i] · R^(base+i)
//
// plus any non-finite summands tracked out of band. Its memory follows
// the data's exponent spread (the paper's σ(n)) rather than the whole
// double-precision range, which is what makes a keyed entry or a
// MapReduce combiner cheap when δ is small. NewFullWindow pre-sizes one
// to the whole range, for pooled accumulators that must never regrow.
// Both the dense and the sparse engine run on it; they differ only in
// the kind byte of their wire partials (MarshalKind).
//
// Additions of raw float64 values are applied lazily: digits may drift
// outside [−α, β] for up to maxLazyAdds(W) additions before a
// regularization pass restores the invariant (the paper's observation
// that a mantissa holds Ω(log n) slack bits, so carries need not be
// resolved per addition). AddRegularized implements the carry-free
// Lemma 1 addition used by the parallel algorithms.
//
// Bulk additions at the canonical width go one tier higher: AddSlice and
// SubSlice accumulate into a call-scoped carry-save lane cache (lanes.go),
// an L1-resident 128-bit-per-window mirror of the digit string kept on
// the call's stack, and drain it into the digits before they return,
// growing the window once per drain. A drain is value-preserving, so
// between calls the digits hold the whole value and the canonical
// regularized digit string is bit-identical to the scalar path's.
type Window struct {
	w      uint
	base   int // digit index of win[0]; meaningful only when len(win) > 0
	win    []int64
	nAdd   int64
	maxAdd int64
	sp     special
}

// NewWindow returns an empty window accumulator of width w
// (0 means DefaultWidth).
func NewWindow(w uint) *Window {
	w = widthOrDefault(w)
	return &Window{w: w, maxAdd: maxLazyAdds(w)}
}

// NewFullWindow returns an empty window of width w pre-sized to the whole
// digit range a sum of doubles can populate, so neither a lane drain nor
// a merge ever grows it. The parallel paths pool these.
func NewFullWindow(w uint) *Window {
	a := NewWindow(w)
	lo, hi := digitBounds(a.w)
	a.base, a.win = lo, make([]int64, hi-lo+1)
	return a
}

// Width returns the digit width W (the radix is 2^W).
func (a *Window) Width() uint { return a.w }

// Span returns the number of digits the active window currently covers.
func (a *Window) Span() int {
	return len(a.win)
}

// Reset empties the accumulator, keeping its digit range and storage.
func (a *Window) Reset() {
	clear(a.win)
	a.nAdd = 0
	a.sp = special{}
}

// Add accumulates x exactly, growing the window as needed. NaN and ±Inf
// are tracked with IEEE semantics.
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
		a.Regularize()
	}
	a.nAdd++
	neg, m, e := fpnum.Decompose(x)
	a.addChunks(neg, m, e)
}

// addChunks splits m·2^e (m < 2^64) into W-bit digit-aligned chunks and
// adds them (subtracts when neg) to the window, growing it as needed.
// Each digit receives less than R, so one call costs one lazy add.
func (a *Window) addChunks(neg bool, m uint64, e int) {
	k := floorDiv(e, int(a.w))
	off := uint(e - k*int(a.w))
	lo := m << off
	hi := uint64(0)
	if off != 0 {
		hi = m >> (64 - off)
	}
	nd := chunkDigits[a.w]
	i := k - a.base
	if i < 0 || i+nd > len(a.win) {
		a.ensure(k, k+nd-1, addPad)
		i = k - a.base
	}
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

// chunkDigits[w] bounds how many width-w digits addChunks touches:
// m·2^off has at most 63+w bits, and 84/w+2 digits cover that for every
// w in [MinWidth, MaxWidth]. A table, because a division per Add is a
// measurable share of the scalar path.
var chunkDigits = func() (t [MaxWidth + 1]int) {
	for w := MinWidth; w <= MaxWidth; w++ {
		t[w] = 84/w + 2
	}
	return t
}()

// AddSlice accumulates every element of xs exactly. It is the bulk entry
// point every bulk consumer uses — the sequential one-shot Sum, the
// parallel chunk workers, sharded AddBatch, keyed adds, stream bucket
// fills and the sumd ingest path — and, at the canonical digit width,
// runs the carry-save lane pass of lanes.go. The result is bit-identical
// to calling Add per element.
func (a *Window) AddSlice(xs []float64) {
	if a.w != blockWidth {
		for _, x := range xs {
			a.Add(x)
		}
		return
	}
	laneSlice(a, xs, 0)
}

// AddSlice32 accumulates every element of a float32 slice exactly (every
// float32 value is a float64 value; no widening conversion is
// materialized) via the narrow-lane float32 pass.
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
		a.Regularize()
	}
	a.nAdd += 4
	a.ensure(lo, hi, addPad)
	return a.win[lo-a.base : hi-a.base+1]
}

// Sub deletes x from the accumulated sum exactly — the group inverse of
// Add, made possible by the signed-digit representation: the digit
// updates are the sign-flipped chunks of x, so a+x−x is bit-for-bit a.
// Non-finite values are deleted from the out-of-band multiset (Sub(+Inf)
// after Add(+Inf) restores the prior state; it is not Add(−Inf)).
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
		a.Regularize()
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
// sign and the infinity multiplicities swap. A regularized accumulator
// stays regularized — the (α,β) range is symmetric — and the lazy-add
// budget is unchanged.
func (a *Window) Neg() {
	for i := range a.win {
		a.win[i] = -a.win[i]
	}
	a.sp.negate()
}

// AddNeg subtracts o's exact contents from a — the group inverse of Merge,
// leaving o unmodified. Deleting a previously merged accumulator restores
// the prior value bit-for-bit, including the out-of-band special
// multiplicities (which are subtracted, not sign-swapped: AddNeg deletes
// o's summands rather than merging their negations). Widths must match.
func (a *Window) AddNeg(o *Window) {
	if a.w != o.w {
		panic("accum: width mismatch in Window.AddNeg")
	}
	a.sp.unmerge(o.sp)
	a.addDigits(o, -1)
}

// Merge adds o into a exactly, growing the window to cover o's active
// range. It is a digit-wise addition that regularizes first only when the
// combined lazy-add budget would overflow; o is not modified. Widths
// must match.
func (a *Window) Merge(o *Window) {
	if a.w != o.w {
		panic("accum: width mismatch in Window.Merge")
	}
	a.sp.merge(o.sp)
	a.addDigits(o, 1)
}

// addDigits adds sign·o's digits into a (sign is ±1).
func (a *Window) addDigits(o *Window, sign int64) {
	if len(o.win) == 0 {
		return
	}
	if a.nAdd+o.nAdd+1 > a.maxAdd {
		a.Regularize() // o.nAdd ≤ maxAdd by construction, so this suffices
	}
	a.ensure(o.base, o.base+len(o.win)-1, 0)
	dst := a.win[o.base-a.base:]
	for i, v := range o.win {
		dst[i] += sign * v
	}
	a.nAdd += o.nAdd + 1
}

// addPad is how many spare digits ensure adds on each side a stream of
// adds grows the window toward, so the stream regrows it rarely.
const addPad = 4

// ensure grows the window to cover digit indices [lo, hi], with pad spare
// digits on each side it grows toward. Merges pass no padding: the source
// is already padded, and padding again would widen windows that merge
// into each other in turn by 2·addPad digits every round, without bound.
// Upward growth reuses spare capacity first, so a pre-sized window that
// Regularize shortened never reallocates.
func (a *Window) ensure(lo, hi, pad int) {
	if len(a.win) == 0 {
		a.base = lo - pad
		a.win = make([]int64, hi-lo+1+2*pad)
		return
	}
	if lo >= a.base && hi < a.base+len(a.win) {
		return
	}
	if lo >= a.base && hi < a.base+cap(a.win) {
		n := len(a.win)
		a.win = a.win[:hi-a.base+1]
		clear(a.win[n:])
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

// Regularize restores every digit to the (α,β) range without changing
// the represented value: one low-to-high signed-carry pass leaves each
// digit in [0, R−1], and a final carry extends the window by as many
// digits as it needs. A negative value ends in a single −1 digit: the
// carry leaves a run (R−1, …, R−1, −1) at the top, which collapses to
// −1 at the run's start (−R^t + Σ(R−1)R^j = −R^s), so the window never
// covers more than one digit beyond the value. That form is canonical:
// equal values regularize to equal digit strings.
func (a *Window) Regularize() {
	a.nAdd = 0
	if len(a.win) == 0 {
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
			// Arithmetic shift of a negative carry converges to −1, the
			// signed top digit of a negative value.
			a.win = append(a.win, -1)
			break
		}
		a.win = append(a.win, c&mask)
		c >>= a.w
	}
	if top := len(a.win) - 1; a.win[top] == -1 {
		s := top
		for s > 0 && a.win[s-1] == mask {
			s--
		}
		a.win[s] = -1
		a.win = a.win[:s+1]
	}
}

// AddRegularized adds o into a using the paper's Lemma 1 carry-free
// parallel addition. Both accumulators must be regularized (all digits in
// [−α, β]); the result is again regularized, with every output digit
// computable independently given only its own component sum and its
// lower neighbor's — the property that makes superaccumulator addition
// O(1)-depth on a PRAM. The windows may cover different ranges: a first
// grows to their union (o reads as zero outside its own). Widths must
// match.
func (a *Window) AddRegularized(o *Window) {
	if a.w != o.w {
		panic("accum: width mismatch in AddRegularized")
	}
	a.sp.merge(o.sp)
	if len(o.win) > 0 {
		a.ensure(o.base, o.base+len(o.win)-1, 0)
	}
	r := int64(1) << a.w
	off := o.base - a.base
	var carryIn int64
	for i := range a.win {
		p := a.win[i] // Pᵢ ∈ [−2α, 2β] once o's digit is added
		if j := i - off; j >= 0 && j < len(o.win) {
			p += o.win[j]
		}
		var carryOut int64
		switch {
		case p >= r-1:
			carryOut = 1
		case p <= -r+1:
			carryOut = -1
		}
		a.win[i] = p - carryOut*r + carryIn // Wᵢ ∈ [−(α−1), β−1], plus the carry
		carryIn = carryOut
	}
	if carryIn != 0 {
		a.win = append(a.win, carryIn)
	}
	a.nAdd = 0
}

// IsRegularized reports whether every digit lies in the (α,β) range
// [−(R−1), R−1]. It is the Lemma 1 invariant checked by the property
// tests.
func (a *Window) IsRegularized() bool {
	r := int64(1) << a.w
	for _, v := range a.win {
		if v <= -r || v >= r {
			return false
		}
	}
	return true
}

// IsZero reports whether the accumulated exact sum is zero (and no
// non-finite summand was seen).
func (a *Window) IsZero() bool {
	if a.sp.any() {
		return false
	}
	for _, v := range a.win {
		if v != 0 {
			return false
		}
	}
	return true
}

// Round returns the correctly rounded (round-to-nearest-even) float64
// value of the exact sum, implementing steps 6–7 of the paper's PRAM
// algorithm. The accumulator is not modified.
func (a *Window) Round() float64 {
	if v, ok := a.sp.resolved(); ok {
		return v
	}
	if len(a.win) == 0 {
		return 0
	}
	return roundDigits(a.win, a.base, a.w)
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
	a.Regularize()
	s := &Sparse{w: a.w, sp: a.sp}
	for i, v := range a.win {
		if v != 0 {
			s.idx = append(s.idx, int32(a.base+i))
			s.dig = append(s.dig, v)
		}
	}
	return s
}

// Digits returns the digit string and the index of its first element, for
// inspection by tests. The slice aliases a's state.
func (a *Window) Digits() ([]int64, int) {
	return a.win, a.base
}

// String renders the nonzero digits, most significant first, for
// debugging.
func (a *Window) String() string {
	out := "Window{"
	first := true
	for i := len(a.win) - 1; i >= 0; i-- {
		if a.win[i] != 0 {
			if !first {
				out += " "
			}
			out += fmt.Sprintf("%d:%d", a.base+i, a.win[i])
			first = false
		}
	}
	return out + "}"
}
