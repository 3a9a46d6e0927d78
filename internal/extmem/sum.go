package extmem

import (
	"errors"
	"math"

	"parsum/internal/accum"
	"parsum/internal/fpnum"
)

// Component is one superaccumulator component on disk: a signed mantissa at
// digit index Idx (binary weight 2^(w·Idx)).
type Component struct {
	Idx int32
	Dig int64
}

// ErrMemory is returned by ScanSum when the accumulator cannot fit in the
// model's internal memory (σ(n) > M), the case Theorem 6 excludes.
var ErrMemory = errors.New("extmem: accumulator exceeds internal memory; use SortSum")

// specials mirrors the IEEE bookkeeping of the accumulators.
type specials struct{ nan, pos, neg bool }

func (s *specials) note(x float64) bool {
	switch fpnum.Classify(x) {
	case fpnum.ClassNaN:
		s.nan = true
	case fpnum.ClassPosInf:
		s.pos = true
	case fpnum.ClassNegInf:
		s.neg = true
	case fpnum.ClassZero:
	default:
		return false
	}
	return true
}

func (s *specials) resolve() (float64, bool) {
	switch {
	case s.nan, s.pos && s.neg:
		return math.NaN(), true
	case s.pos:
		return math.Inf(1), true
	case s.neg:
		return math.Inf(-1), true
	}
	return 0, false
}

// ScanSum implements Theorem 6: a single scan of the input with the whole
// superaccumulator resident in internal memory, using O(scan(n)) I/Os. It
// fails with ErrMemory if the accumulator's active span would exceed M
// records (by the paper's assumption σ(n) ≤ M this does not happen for
// double-precision data unless M is set artificially small).
func ScanSum(m *Model, in *File[float64], w uint) (float64, error) {
	acc := accum.NewWindow(w)
	var sp specials
	rd := in.NewReader()
	for {
		x, ok := rd.Next()
		if !ok {
			break
		}
		if sp.note(x) {
			continue
		}
		acc.Add(x)
		if acc.Span() > m.M {
			return 0, ErrMemory
		}
	}
	if v, ok := sp.resolve(); ok {
		return v, nil
	}
	return acc.Round(), nil
}

// SortSum implements Theorem 5: convert every input number to O(1)
// superaccumulator components (one scan), sort the components by exponent
// index (O(sort) I/Os), then sweep them in ascending order through a hot
// window of O(1) blocks, spilling finalized canonical digits to disk, and
// finally round from a re-scan of the spilled digit stream. Internal
// memory holds only the sort buffers and the constant-size hot window, so
// the algorithm works for any M ≥ 4B regardless of the accumulator size.
func SortSum(m *Model, in *File[float64], w uint) (float64, error) {
	if w == 0 {
		w = accum.DefaultWidth
	}
	// Step 1: convert to components.
	comps := NewFile[Component](m)
	cw := comps.NewWriter()
	var sp specials
	rd := in.NewReader()
	for {
		x, ok := rd.Next()
		if !ok {
			break
		}
		if sp.note(x) {
			continue
		}
		s := accum.FromFloat64(x, w)
		idx, dig := s.Components()
		for k := range idx {
			cw.Append(Component{Idx: idx[k], Dig: dig[k]})
		}
	}
	cw.Close()
	if v, ok := sp.resolve(); ok {
		return v, nil
	}
	if comps.Len() == 0 {
		return 0, nil
	}

	// Step 2: external sort by component index.
	sorted := ExternalSort(m, comps, func(a, b Component) bool { return a.Idx < b.Idx })

	// Steps 3–4: sweep ascending through a constant-size hot window,
	// canonicalizing and spilling digits the sweep has passed. Carries
	// only ever move upward, so a spilled digit is final.
	spill := NewFile[Component](m)
	sw := spill.NewWriter()
	const winLen = 8 // covers the ≤ ⌈84/w⌉+1 spread of one value's components
	var (
		win     [winLen]int64
		base    int32 // index of win[0]
		started bool
		carry   int64
		mask    = int64(1)<<w - 1
		adds    int64
		maxAdd  = int64(1) << (62 - w) // int64: an int budget is 0 on 32-bit hosts
	)
	emit := func() { // finalize win[0] and slide
		v := win[0] + carry
		if d := v & mask; d != 0 {
			sw.Append(Component{Idx: base, Dig: d})
		}
		carry = v >> w
		copy(win[:], win[1:])
		win[winLen-1] = 0
		base++
	}
	srd := sorted.NewReader()
	for {
		c, ok := srd.Next()
		if !ok {
			break
		}
		if !started {
			started = true
			base = c.Idx
		}
		for c.Idx >= base+winLen {
			emit()
		}
		win[c.Idx-base] += c.Dig
		if adds++; adds >= maxAdd {
			// Regularize the window in place before any digit overflows.
			var rc int64
			for i := 0; i < winLen-1; i++ {
				v := win[i] + rc
				win[i] = v & mask
				rc = v >> w
			}
			win[winLen-1] += rc
			adds = 0
		}
	}
	// Flush the window and drain the final carry.
	for i := 0; i < winLen; i++ {
		emit()
	}
	negTopIdx := int32(0)
	negative := false
	for carry != 0 && carry != -1 {
		if d := carry & mask; d != 0 {
			sw.Append(Component{Idx: base, Dig: d})
		}
		carry >>= w
		base++
	}
	if carry == -1 {
		negative = true
		negTopIdx = base // value = spilled digits − R^negTopIdx
	}
	sw.Close()

	// Step 5: round from a re-scan of the canonical digit stream.
	r := newStreamRounder(w)
	prd := spill.NewReader()
	if !negative {
		for {
			c, ok := prd.Next()
			if !ok {
				break
			}
			r.push(int(c.Idx), c.Dig)
		}
		return r.finish(false), nil
	}
	// Negative value: stream the complement |value| = R^top − Σ digits,
	// filling gaps (zero digits borrow to R−1).
	var (
		borrow int64
		cur    int32
		first  = true
	)
	next, ok := prd.Next()
	for cur = 0; ; cur++ {
		if first {
			if !ok { // no digits at all: |value| = R^top exactly
				break
			}
			cur = next.Idx
			first = false
		}
		if cur >= negTopIdx {
			break
		}
		var d int64
		if ok && next.Idx == cur {
			d = next.Dig
			next, ok = prd.Next()
		}
		v := -d + borrow
		if out := v & mask; out != 0 {
			r.push(int(cur), out)
		}
		borrow = v >> w
	}
	top := 1 + borrow // the R^top term plus accumulated borrow
	if top != 0 {
		r.push(int(negTopIdx), top)
	}
	return r.finish(true), nil
}

// streamRounder consumes canonical digits in strictly ascending index order
// (gaps are implicit zeros) and rounds the represented non-negative value,
// keeping only a constant-size ring of the most significant digits plus a
// sticky flag for everything that slid out below.
type streamRounder struct {
	w      uint
	base   int // index of ring[0]
	ring   []int64
	sticky bool
	any    bool
}

const ringLen = 16 // ≥ ⌈53/w⌉+3 digits for every supported w

func newStreamRounder(w uint) *streamRounder {
	return &streamRounder{w: w, ring: make([]int64, ringLen)}
}

func (r *streamRounder) push(idx int, dig int64) {
	if !r.any {
		r.any = true
		r.base = idx - ringLen + 1
		r.ring[ringLen-1] = dig
		return
	}
	top := r.base + ringLen - 1
	if idx <= top {
		r.ring[idx-r.base] += dig // same-position accumulation (top fix-up)
		return
	}
	shift := idx - top
	if shift >= ringLen {
		for _, d := range r.ring {
			if d != 0 {
				r.sticky = true
				break
			}
		}
		for i := range r.ring {
			r.ring[i] = 0
		}
		r.base = idx - ringLen + 1
		r.ring[ringLen-1] = dig
		return
	}
	for i := 0; i < shift; i++ {
		if r.ring[i] != 0 {
			r.sticky = true
		}
	}
	copy(r.ring, r.ring[shift:])
	for i := ringLen - shift; i < ringLen; i++ {
		r.ring[i] = 0
	}
	r.base += shift
	r.ring[ringLen-1] = dig
}

// finish rounds the accumulated value, negating the result when neg is set.
// The sticky flag is injected as a nonzero digit one position below the
// ring, which is provably below the rounding position whenever digits have
// actually slid out (see the package tests for the boundary argument).
func (r *streamRounder) finish(neg bool) float64 {
	if !r.any {
		return 0
	}
	win := make([]int64, ringLen+1)
	if r.sticky {
		win[0] = 1
	}
	copy(win[1:], r.ring)
	v := accum.RoundDigitString(win, r.base-1, r.w)
	if neg {
		return -v
	}
	return v
}
