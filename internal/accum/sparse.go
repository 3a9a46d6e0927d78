package accum

import (
	"fmt"

	"parsum/internal/fpnum"
)

// Sparse is the paper's sparse superaccumulator: the vector of active
// components (yᵢⱼ, …, yᵢ₀) of an (α,β)-regularized superaccumulator, stored
// as parallel arrays of ascending digit indices and signed mantissas. An
// index is active once it has held a component (merging preserves activity
// even when a component becomes zero, per the paper's definition).
//
// All digits of a well-formed Sparse lie in [−(R−1), R−1], so MergeSparse
// can use the Lemma 1 carry-free addition.
type Sparse struct {
	w   uint
	idx []int32
	dig []int64
	sp  special
}

// NewSparse returns an empty sparse superaccumulator of width w
// (0 means DefaultWidth).
func NewSparse(w uint) *Sparse {
	return &Sparse{w: widthOrDefault(w)}
}

// FromFloat64 returns the sparse superaccumulator equivalent to the single
// float64 x — the paper's step 2 conversion, splitting x into O(1)
// components whose exponents are multiples of W (0 means DefaultWidth).
func FromFloat64(x float64, w uint) *Sparse {
	w = widthOrDefault(w)
	s := NewSparse(w)
	c := fpnum.Classify(x)
	if c == fpnum.ClassZero {
		return s
	}
	if c != fpnum.ClassFinite {
		s.sp.note(c)
		return s
	}
	neg, m, e := fpnum.Decompose(x)
	k := floorDiv(e, int(w))
	off := uint(e - k*int(w))
	lo := m << off
	hi := uint64(0)
	if off != 0 {
		hi = m >> (64 - off)
	}
	mask := uint64(1)<<w - 1
	for lo != 0 || hi != 0 {
		d := int64(lo & mask)
		if neg {
			d = -d
		}
		if d != 0 {
			s.idx = append(s.idx, int32(k))
			s.dig = append(s.dig, d)
		}
		lo = lo>>w | hi<<(64-w)
		hi >>= w
		k++
	}
	return s
}

// Width returns the digit width W.
func (s *Sparse) Width() uint { return s.w }

// Len returns the number of active components — the paper's σ measure.
func (s *Sparse) Len() int { return len(s.idx) }

// Components returns the active indices and digits (aliasing s's storage).
func (s *Sparse) Components() ([]int32, []int64) { return s.idx, s.dig }

// IsRegularized reports whether every digit lies in [−(R−1), R−1].
func (s *Sparse) IsRegularized() bool {
	r := int64(1) << s.w
	for _, v := range s.dig {
		if v <= -r || v >= r {
			return false
		}
	}
	return true
}

// MergeSparse returns the carry-free sum of two sparse superaccumulators,
// the core parallel primitive of the paper. For every merged index i it
// forms Pᵢ = Yᵢ + Zᵢ, reduces with a signed carry Cᵢ₊₁ ∈ {−1, 0, +1} chosen
// per Lemma 1 so Wᵢ = Pᵢ − Cᵢ₊₁·R ∈ [−(α−1), β−1], and emits
// Sᵢ = Wᵢ + Cᵢ ∈ [−α, β]. A carry into an inactive index activates it;
// carries never cascade, so a single pass suffices. Inputs are unmodified.
func MergeSparse(a, b *Sparse) *Sparse {
	if a.w != b.w {
		panic("accum: width mismatch in MergeSparse")
	}
	out := &Sparse{
		w:   a.w,
		idx: make([]int32, 0, len(a.idx)+len(b.idx)+1),
		dig: make([]int64, 0, len(a.idx)+len(b.idx)+1),
		sp:  a.sp,
	}
	out.sp.merge(b.sp)
	r := int64(1) << a.w
	var carry int64
	var carryAt int32
	i, j := 0, 0
	for i < len(a.idx) || j < len(b.idx) {
		var ix int32
		var p int64
		switch {
		case j >= len(b.idx) || (i < len(a.idx) && a.idx[i] < b.idx[j]):
			ix, p = a.idx[i], a.dig[i]
			i++
		case i >= len(a.idx) || b.idx[j] < a.idx[i]:
			ix, p = b.idx[j], b.dig[j]
			j++
		default: // equal indices
			ix, p = a.idx[i], a.dig[i]+b.dig[j]
			i++
			j++
		}
		if carry != 0 && carryAt < ix {
			// Carry into an index inactive in both inputs: Pᵢ = 0 there,
			// so the component is just the carry itself.
			out.idx = append(out.idx, carryAt)
			out.dig = append(out.dig, carry)
			carry = 0
		}
		var carryIn int64
		if carry != 0 && carryAt == ix {
			carryIn = carry
			carry = 0
		}
		var carryOut int64
		switch {
		case p >= r-1:
			carryOut = 1
		case p <= -r+1:
			carryOut = -1
		}
		out.idx = append(out.idx, ix)
		out.dig = append(out.dig, p-carryOut*r+carryIn)
		if carryOut != 0 {
			carry = carryOut
			carryAt = ix + 1
		}
	}
	if carry != 0 {
		out.idx = append(out.idx, carryAt)
		out.dig = append(out.dig, carry)
	}
	return out
}

// Add accumulates a single float64 by merging its O(1)-component
// superaccumulator. It costs O(Len) per call; bulk construction should use
// Window (streaming) and Window.ToSparse instead.
func (s *Sparse) Add(x float64) {
	m := MergeSparse(s, FromFloat64(x, s.w))
	s.idx, s.dig, s.sp = m.idx, m.dig, m.sp
}

// Sub deletes x from the accumulated sum exactly — the group inverse of
// Add: it merges the sign-flipped components of x, so a+x−x is bit-for-bit
// a. Non-finite values are deleted from the out-of-band multiset (see
// Window.Sub). It costs O(Len) per call, like Add.
func (s *Sparse) Sub(x float64) {
	c := fpnum.Classify(x)
	if c != fpnum.ClassFinite {
		s.sp.unnote(c)
		return
	}
	m := MergeSparse(s, FromFloat64(-x, s.w)) // x is finite, so −x decomposes to the sign-flipped components
	s.idx, s.dig = m.idx, m.dig
}

// Neg negates the represented value in place: every component flips sign
// (staying in the symmetric (α,β) range) and the infinity multiplicities
// swap.
func (s *Sparse) Neg() {
	for k := range s.dig {
		s.dig[k] = -s.dig[k]
	}
	s.sp.negate()
}

// AddNeg subtracts o's exact contents from s — the group inverse of
// MergeSparse, leaving o unmodified. Special multiplicities are subtracted,
// not sign-swapped: AddNeg deletes o's summands rather than merging their
// negations. Widths must match.
func (s *Sparse) AddNeg(o *Sparse) {
	t := &Sparse{w: o.w, idx: o.idx, dig: make([]int64, len(o.dig))}
	for k, v := range o.dig {
		t.dig[k] = -v
	}
	m := MergeSparse(s, t)
	s.idx, s.dig = m.idx, m.dig
	s.sp.unmerge(o.sp)
}

// Compact removes zero components (deactivating them). The represented
// value is unchanged; activity bookkeeping is reset. Used when shrinking
// shuffle payloads matters more than the active-index semantics.
func (s *Sparse) Compact() {
	outI, outD := s.idx[:0], s.dig[:0]
	for k, v := range s.dig {
		if v != 0 {
			outI = append(outI, s.idx[k])
			outD = append(outD, v)
		}
	}
	s.idx, s.dig = outI, outD
}

// Round returns the correctly rounded float64 value of the exact
// accumulated sum (round-to-nearest-even; in particular a faithful
// rounding in the paper's sense).
func (s *Sparse) Round() float64 {
	if v, ok := s.sp.resolved(); ok {
		return v
	}
	if len(s.idx) == 0 {
		return 0
	}
	lo, hi := int(s.idx[0]), int(s.idx[len(s.idx)-1])
	win := make([]int64, hi-lo+2)
	for k, ix := range s.idx {
		win[int(ix)-lo] += s.dig[k]
	}
	return roundDigits(win, lo, s.w)
}

// Clone returns an independent copy of s.
func (s *Sparse) Clone() *Sparse {
	c := &Sparse{w: s.w, sp: s.sp}
	c.idx = append([]int32(nil), s.idx...)
	c.dig = append([]int64(nil), s.dig...)
	return c
}

// EncodedSize returns the number of bytes a component-wise binary encoding
// of s would occupy (4-byte index + 8-byte digit per component); the
// MapReduce engine uses it to account shuffle volume.
func (s *Sparse) EncodedSize() int { return 12 * len(s.idx) }

// String renders the components most-significant first for debugging.
func (s *Sparse) String() string {
	out := "Sparse{"
	for k := len(s.idx) - 1; k >= 0; k-- {
		if k < len(s.idx)-1 {
			out += " "
		}
		out += fmt.Sprintf("%d:%d", s.idx[k], s.dig[k])
	}
	return out + "}"
}
