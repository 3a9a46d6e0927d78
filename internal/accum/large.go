package accum

import "math"

// Large is a Neal-style "large superaccumulator": one 64-bit bin per IEEE
// biased exponent value, so accumulating a double is a single signed add of
// its significand into the bin selected by its exponent — no splitting at
// all. Bins are folded into a base Window before they can overflow
// and on demand for rounding. It is the fastest sequential accumulate path
// and serves as an extension baseline (the paper's experiments use the
// small variant).
type Large struct {
	bins [2048]int64 // indexed by the 11-bit biased exponent
	nAdd int
	base *Window
	sp   special
}

// maxLargeAdds bounds adds between folds: each add changes a bin by less
// than 2^53, so 2^10 adds keep |bin| < 2^63.
const maxLargeAdds = 1 << 10

// NewLarge returns an empty large superaccumulator.
func NewLarge() *Large {
	return &Large{base: NewWindow(DefaultWidth)}
}

// Add accumulates x exactly with a single bin update.
func (l *Large) Add(x float64) { l.apply(x, 1) }

// Sub deletes x from the accumulated sum exactly — the group inverse of
// Add, a single signed bin update. Non-finite values are deleted from the
// out-of-band multiset (see Window.Sub).
func (l *Large) Sub(x float64) { l.apply(x, -1) }

// apply adds (sign = +1) or deletes (sign = −1) x with one bin update.
func (l *Large) apply(x float64, sign int64) {
	b := math.Float64bits(x)
	exp := int(b>>52) & 0x7FF
	if exp == 0x7FF { // Inf or NaN
		switch {
		case b<<12 != 0:
			l.sp.nan += sign
		case b>>63 != 0:
			l.sp.negInf += sign
		default:
			l.sp.posInf += sign
		}
		return
	}
	if l.nAdd >= maxLargeAdds {
		l.fold()
	}
	l.nAdd++
	m := int64(b & (1<<52 - 1))
	if exp > 0 {
		m |= 1 << 52
	}
	if b>>63 != 0 {
		m = -m
	}
	l.bins[exp] += sign * m
}

// AddSlice accumulates every element of xs exactly.
func (l *Large) AddSlice(xs []float64) {
	for _, x := range xs {
		l.Add(x)
	}
}

// SubSlice deletes every element of xs exactly.
func (l *Large) SubSlice(xs []float64) {
	for _, x := range xs {
		l.Sub(x)
	}
}

// Neg negates the represented value in place: every exponent bin and every
// digit of the base window flips sign, and the infinity multiplicities swap.
func (l *Large) Neg() {
	for i := range l.bins {
		l.bins[i] = -l.bins[i]
	}
	l.base.Neg()
	l.sp.negate()
}

// AddNeg subtracts o's exact contents from l — the group inverse of Merge.
// Like Merge it folds o's bins into o's base as a side effect (o's value is
// unchanged). Special multiplicities are subtracted, not sign-swapped
// (AddNeg deletes o's summands).
func (l *Large) AddNeg(o *Large) {
	l.sp.unmerge(o.sp)
	o.fold()
	l.fold()
	l.base.AddNeg(o.base)
}

// fold drains every bin into the base window.
func (l *Large) fold() {
	for exp, v := range l.bins {
		if v == 0 {
			continue
		}
		// A bin with biased exponent E > 0 holds significands weighted
		// 2^(E−Bias−52); the subnormal bin (E == 0) is weighted 2^−1074.
		e := exp - 1075
		if exp == 0 {
			e = -1074
		}
		l.base.addInt64(v, e)
		l.bins[exp] = 0
	}
	l.nAdd = 0
}

// Merge adds o into l.
func (l *Large) Merge(o *Large) {
	l.sp.merge(o.sp)
	o.fold()
	l.fold()
	l.base.Merge(o.base)
}

// Reset empties the accumulator, retaining its storage.
func (l *Large) Reset() {
	l.bins = [2048]int64{}
	l.nAdd = 0
	l.base.Reset()
	l.sp = special{}
}

// Clone returns an independent copy of l.
func (l *Large) Clone() *Large {
	c := *l
	c.base = l.base.Clone()
	return &c
}

// Round returns the correctly rounded float64 value of the exact sum.
func (l *Large) Round() float64 {
	if v, ok := l.sp.resolved(); ok {
		return v
	}
	l.fold()
	return l.base.Round()
}
