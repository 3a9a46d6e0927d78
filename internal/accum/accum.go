// Package accum implements the number representations at the heart of
// Goodrich & Eldawy, "Parallel Algorithms for Summing Floating-Point
// Numbers" (SPAA 2016):
//
//   - Window: an (α,β)-regularized superaccumulator with α = β = R−1 for
//     radix R = 2^W (the paper's generalized-signed-digit extension to
//     floating point), storing one contiguous range of digits — the
//     data's active range, or the whole double-precision range when
//     pre-sized by NewFullWindow. Addition of two regularized
//     accumulators is carry-free in the sense of Lemma 1: every carry
//     moves to the adjacent component and no further, so all components
//     of a sum can be produced independently in parallel. It backs both
//     the dense and the sparse engine.
//   - Sparse: the paper's sparse superaccumulator — the vector of active
//     (index, signed mantissa) components — with a carry-free merge.
//   - Truncated: the γ-truncated sparse superaccumulator of Section 4.
//   - Small: Neal's carry-propagating small superaccumulator, the
//     baseline the paper's MapReduce experiments compare variants against.
//
// All representations store the running sum exactly; Round converts the
// exact value to the correctly rounded (round-to-nearest-even, hence also
// faithfully rounded) float64, following steps 6–7 of the paper's PRAM
// algorithm: signed-carry propagation to a non-redundant form, then a
// single rounding at the end.
package accum

import (
	"math"

	"parsum/internal/fpnum"
)

const (
	// MinWidth and MaxWidth bound the configurable digit width W (R = 2^W).
	// W ≥ 8 keeps per-float chunk counts small; W ≤ 32 keeps the Lemma 1
	// component sums Pᵢ ∈ [−2α, 2β] comfortably inside int64.
	MinWidth = 8
	MaxWidth = 32
	// DefaultWidth is the digit width used when callers pass 0.
	DefaultWidth = 32
)

// special tracks non-finite summands out of band of the digit string as
// signed multiplicities, so the accumulator is a group rather than just a
// monoid: deleting a previously added NaN or infinity (Sub/AddNeg)
// decrements its counter and exactly restores the prior state. Resolution
// follows IEEE semantics on the counters: any present NaN poisons the sum;
// +Inf and −Inf both present make NaN; otherwise a present infinity
// dominates every finite value. A counter is "present" when positive;
// deleting a special that was never added drives its counter negative,
// which reads as absent and cancels only against a later matching addition
// (the group laws still hold exactly).
type special struct {
	nan    int64
	posInf int64
	negInf int64
}

func (s *special) merge(o special) {
	s.nan += o.nan
	s.posInf += o.posInf
	s.negInf += o.negInf
}

// unmerge subtracts o's multiplicities — the group inverse of merge, used
// by AddNeg to delete a previously merged accumulator exactly.
func (s *special) unmerge(o special) {
	s.nan -= o.nan
	s.posInf -= o.posInf
	s.negInf -= o.negInf
}

// negate maps the tracked multiset through x ↦ −x: the infinity counters
// swap and NaN stays NaN.
func (s *special) negate() {
	s.posInf, s.negInf = s.negInf, s.posInf
}

// resolved returns the non-finite result and true if the accumulated
// specials force one, else (0, false).
func (s *special) resolved() (float64, bool) {
	switch {
	case s.nan > 0, s.posInf > 0 && s.negInf > 0:
		return nan(), true
	case s.posInf > 0:
		return inf(1), true
	case s.negInf > 0:
		return inf(-1), true
	}
	return 0, false
}

func (s *special) any() bool { return s.nan != 0 || s.posInf != 0 || s.negInf != 0 }

// note records a non-finite summand classified by fpnum.Classify.
func (s *special) note(c fpnum.Class) {
	switch c {
	case fpnum.ClassNaN:
		s.nan++
	case fpnum.ClassPosInf:
		s.posInf++
	case fpnum.ClassNegInf:
		s.negInf++
	}
}

// unnote deletes one previously noted non-finite summand — the inverse of
// note, used by Sub. Deletion removes the summand itself: Sub(+Inf) after
// Add(+Inf) restores the empty state (it does not add a −Inf).
func (s *special) unnote(c fpnum.Class) {
	switch c {
	case fpnum.ClassNaN:
		s.nan--
	case fpnum.ClassPosInf:
		s.posInf--
	case fpnum.ClassNegInf:
		s.negInf--
	}
}

// floorDiv returns ⌊a/b⌋ for b > 0 (truncated division adjusted for
// negative numerators). Digit indices are floor(bit position / W), and bit
// positions of double-precision values go as low as −1074.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// DigitBounds returns the digit index range [minIdx, maxIdx] that a
// full-range accumulator of width w covers (see digitBounds); exported for
// the PRAM simulator's memory layout.
func DigitBounds(w uint) (minIdx, maxIdx int) {
	return digitBounds(widthOrDefault(w))
}

// digitBounds returns the digit index range [minIdx, maxIdx] an accumulator
// of width w must cover to hold any sum of up to 2^64 doubles: the lowest
// double bit has weight −1074; the highest has weight 1023; headroom above
// absorbs the ≤ 64 bits of magnitude growth from accumulating up to 2^64
// summands (the paper's "one additional component" observation, sized for
// the lazy-regularization scheme below).
func digitBounds(w uint) (minIdx, maxIdx int) {
	minIdx = floorDiv(fpnum.MinExp, int(w))
	maxIdx = floorDiv(fpnum.MaxBitPos+64, int(w)) + 2
	return minIdx, maxIdx
}

// CheckedWidth validates w, mapping 0 to DefaultWidth and panicking
// outside [MinWidth, MaxWidth]; exported for callers that index their own
// state by digit width and need the same diagnostic as the constructors.
func CheckedWidth(w uint) uint { return widthOrDefault(w) }

// widthOrDefault validates w, mapping 0 to DefaultWidth.
func widthOrDefault(w uint) uint {
	if w == 0 {
		return DefaultWidth
	}
	if w < MinWidth || w > MaxWidth {
		panic("accum: digit width out of range [8,32]")
	}
	return w
}

// maxLazyAdds returns how many raw float64 additions may be applied to a
// regularized digit string before any digit could overflow int64. Each add
// contributes at most R−1 < 2^w per digit on top of a regularized digit in
// [−(R−1), R−1], so 2^(62−w) adds keep |digit| < 2^62 + 2^w < 2^63.
// The budget and the counts it bounds are int64, not int: on a 32-bit
// host an int would truncate it to 0 (or a negative) and every add would
// regularize.
func maxLazyAdds(w uint) int64 {
	return 1 << (62 - w)
}

func nan() float64      { return math.NaN() }
func inf(s int) float64 { return math.Inf(s) }
