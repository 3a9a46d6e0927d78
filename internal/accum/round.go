package accum

import (
	"math/bits"

	"parsum/internal/fpnum"
)

// RoundDigitString returns the correctly rounded float64 value of the
// exact quantity Σ dig[i]·2^(w·(minIdx+i)) for arbitrary int64 digits. It
// is the rounding primitive shared by every representation in this package
// and by the external-memory simulator's streaming rounder.
func RoundDigitString(dig []int64, minIdx int, w uint) float64 {
	return roundDigits(dig, minIdx, widthOrDefault(w))
}

// RoundDigitStringTo rounds the same exact quantity to an arbitrary
// destination format (the paper's algorithms are precision-independent;
// only the final rounding step mentions the output precision). The result
// is a float64 exactly representable in f.
func RoundDigitStringTo(dig []int64, minIdx int, w uint, f fpnum.Format) float64 {
	return roundDigitsTo(dig, minIdx, widthOrDefault(w), f)
}

// roundDigits converts a digit string to the correctly rounded float64 of
// its exact value Σ dig[i]·2^(w·(minIdx+i)).
func roundDigits(src []int64, minIdx int, w uint) float64 {
	return roundDigitsTo(src, minIdx, w, fpnum.Binary64)
}

// roundBufLen is the stack buffer of roundDigitsTo: the 70 digits of a
// full-range window at DefaultWidth plus the headroom digit, rounded up.
// Narrower widths have more digits and take a heap copy.
const roundBufLen = 80

// roundDigitsTo implements steps 6–7 of the paper's PRAM algorithm for an
// arbitrary destination format: a signed-carry propagation to a
// non-redundant form, then a single round-to-nearest-even using the top
// f.SigBits bits plus guard and sticky information.
//
// The paper's step 6 asks for a ((R/2)−1, (R/2)−1)-regularized form; that
// digit set has R−1 < R values and is not complete for even R, so we
// canonicalize to the complete non-redundant form [0, R−1] with a signed top
// digit instead (same asymptotics, see DESIGN.md). The input digits may be
// arbitrary int64 values; a headroom digit is added internally. The
// working copy lives on the stack up to roundBufLen digits, which covers a
// full-range window at DefaultWidth, so rounding one allocates nothing.
func roundDigitsTo(src []int64, minIdx int, w uint, f fpnum.Format) float64 {
	var buf [roundBufLen]int64
	var dig []int64
	if len(src) < len(buf) {
		dig = buf[:len(src)+1]
	} else {
		dig = make([]int64, len(src)+1)
	}
	copy(dig, src)
	canonicalize(dig, w)

	top := len(dig) - 1
	for top >= 0 && dig[top] == 0 {
		top--
	}
	if top < 0 {
		return 0 // exact zero rounds to +0
	}
	neg := dig[top] < 0
	if neg {
		for i := range dig {
			dig[i] = -dig[i]
		}
		canonicalize(dig, w)
		for top = len(dig) - 1; top >= 0 && dig[top] == 0; top-- {
		}
	}

	// Relative bit positions: bit b of digit i has position i·w + b and
	// binary weight minIdx·w + i·w + b.
	msb := top*int(w) + bits.Len64(uint64(dig[top])) - 1
	lsb := msb - (f.SigBits - 1)
	baseWeight := minIdx * int(w)
	if baseWeight+lsb < f.MinExp {
		lsb = f.MinExp - baseWeight // subnormal result: right-align at 2^MinExp
	}
	sig := extractBits(dig, w, lsb, msb)
	var round, sticky bool
	if r := lsb - 1; r >= 0 {
		round = extractBits(dig, w, r, r) != 0
		sticky = anyBelow(dig, w, r)
	}
	return fpnum.RoundToFormat(f, neg, sig, baseWeight+lsb, round, sticky)
}

// canonicalize performs a low-to-high signed-carry pass leaving every digit
// but the last in [0, R−1]; the final carry lands unreduced in the last
// digit. The represented value is unchanged.
func canonicalize(dig []int64, w uint) {
	mask := int64(1)<<w - 1
	var c int64
	last := len(dig) - 1
	for i := 0; i < last; i++ {
		v := dig[i] + c
		dig[i] = v & mask
		c = v >> w
	}
	dig[last] += c
}

// extractBits returns the value of bit positions [lo, hi] (hi−lo ≤ 63) of a
// canonical non-negative digit string. Positions outside the array read as
// zero.
func extractBits(dig []int64, w uint, lo, hi int) uint64 {
	var out uint64
	iw := int(w)
	first := floorDiv(lo, iw)
	last := floorDiv(hi, iw)
	if first < 0 {
		first = 0
	}
	if last > len(dig)-1 {
		last = len(dig) - 1
	}
	for i := first; i <= last; i++ {
		base := i * iw
		from := lo
		if base > from {
			from = base
		}
		to := hi
		if base+iw-1 < to {
			to = base + iw - 1
		}
		if to < from {
			continue
		}
		chunk := uint64(dig[i]) >> uint(from-base)
		nb := uint(to - from + 1)
		if nb < 64 {
			chunk &= 1<<nb - 1
		}
		out |= chunk << uint(from-lo)
	}
	return out
}

// anyBelow reports whether any bit at a position strictly less than pos is
// nonzero in a canonical non-negative digit string.
func anyBelow(dig []int64, w uint, pos int) bool {
	iw := int(w)
	k := floorDiv(pos, iw)
	stop := k
	if stop > len(dig) {
		stop = len(dig)
	}
	for i := 0; i < stop; i++ {
		if dig[i] != 0 {
			return true
		}
	}
	if k >= 0 && k < len(dig) {
		nb := uint(pos - k*iw) // bits [k·iw, pos) within digit k
		if uint64(dig[k])&(1<<nb-1) != 0 {
			return true
		}
	}
	return false
}

// Round32 variants: the paper's precision-independence means any
// accumulator can round its exact value to a narrower format; these are
// the float32 conveniences used by the public Sum32 API.

// Round32 returns the correctly rounded float32 value of a's exact sum.
func (a *Window) Round32() float32 {
	if v, ok := a.sp.resolved(); ok {
		return float32(v)
	}
	if len(a.win) == 0 {
		return 0
	}
	return float32(roundDigitsTo(a.win, a.base, a.w, fpnum.Binary32))
}

// Round32 returns the correctly rounded float32 value of s's exact sum.
func (s *Sparse) Round32() float32 {
	if v, ok := s.sp.resolved(); ok {
		return float32(v)
	}
	if len(s.idx) == 0 {
		return 0
	}
	lo, hi := int(s.idx[0]), int(s.idx[len(s.idx)-1])
	win := make([]int64, hi-lo+2)
	for k, ix := range s.idx {
		win[int(ix)-lo] += s.dig[k]
	}
	return float32(roundDigitsTo(win, lo, s.w, fpnum.Binary32))
}
