package accum

import (
	"fmt"

	"parsum/internal/fpnum"
)

// Dense is an (α,β)-regularized superaccumulator covering the entire
// double-precision exponent range. The value it represents is
//
//	Σ_i dig[i] · R^(minIdx+i),   R = 2^W, α = β = R−1,
//
// plus any non-finite summands tracked out of band. The zero value is not
// usable; construct with NewDense.
//
// Additions of raw float64 values are applied lazily: digits are allowed to
// drift outside [−α, β] for up to maxLazyAdds(W) additions before a
// regularization pass restores the invariant (this is the paper's
// observation that a mantissa holds Ω(log n) slack bits, so carries need not
// be resolved per addition). AddRegularized implements the carry-free
// Lemma 1 addition used by the parallel algorithms.
//
// Bulk additions at the canonical width go one tier higher: AddSlice and
// SubSlice accumulate into a call-scoped carry-save lane cache (lanes.go),
// an L1-resident 128-bit-per-window mirror of the digit string kept on
// the call's stack, and drain it into the digits before they return. A
// drain is value-preserving, so between calls the digits hold the whole
// value and the canonical regularized digit string is bit-identical to
// the scalar path's.
type Dense struct {
	w      uint
	radix  int64
	mask   int64
	minIdx int
	dig    []int64
	nAdd   int
	maxAdd int
	sp     special
}

// NewDense returns an empty dense superaccumulator with digit width w
// (0 means DefaultWidth).
func NewDense(w uint) *Dense {
	w = widthOrDefault(w)
	minIdx, maxIdx := digitBounds(w)
	return &Dense{
		w:      w,
		radix:  1 << w,
		mask:   1<<w - 1,
		minIdx: minIdx,
		dig:    make([]int64, maxIdx-minIdx+1),
		maxAdd: maxLazyAdds(w),
	}
}

// Width returns the digit width W (the radix is 2^W).
func (d *Dense) Width() uint { return d.w }

// Reset returns the accumulator to the empty (zero-sum) state.
func (d *Dense) Reset() {
	for i := range d.dig {
		d.dig[i] = 0
	}
	d.nAdd = 0
	d.sp = special{}
}

// Add accumulates x exactly. NaN and ±Inf are tracked with IEEE semantics.
func (d *Dense) Add(x float64) {
	c := fpnum.Classify(x)
	if c != fpnum.ClassFinite {
		d.sp.note(c)
		return
	}
	if d.nAdd >= d.maxAdd {
		d.Regularize()
	}
	d.nAdd++
	neg, m, e := fpnum.Decompose(x)
	d.addChunks(neg, m, e)
}

// AddSlice accumulates every element of xs exactly. It is the bulk
// streaming entry point used by every bulk consumer — the sequential
// one-shot Sum, the parallel chunk workers, sharded AddBatch, stream
// bucket fills, and the sumd ingest path — and, at the canonical digit
// width, runs the carry-save lane pass of lanes.go: one branch-free
// 128-bit window update per element into the L1-resident lane cache,
// drained into the dense digits once per call. The result is
// bit-identical to calling Add per element.
func (d *Dense) AddSlice(xs []float64) {
	if d.w != blockWidth {
		for _, x := range xs {
			d.Add(x)
		}
		return
	}
	laneSlice(d, xs, 0)
}

// AddSlice32 accumulates every element of a float32 slice exactly (every
// float32 value is a float64 value; no widening conversion is
// materialized). It runs the narrow-lane float32 pass — a 24-bit
// significand never splits across lo words, so the per-element work is
// strictly smaller than AddSlice's.
func (d *Dense) AddSlice32(xs []float32) {
	if d.w != blockWidth {
		for _, x := range xs {
			d.Add(float64(x))
		}
		return
	}
	laneSlice32(d, xs, 0)
}

// SubSlice32 deletes every element of a float32 slice exactly — the group
// inverse of AddSlice32.
func (d *Dense) SubSlice32(xs []float32) {
	if d.w != blockWidth {
		for _, x := range xs {
			d.Sub(float64(x))
		}
		return
	}
	laneSlice32(d, xs, 1)
}

// laneDigits is the laneHost drain target (W = 32).
func (d *Dense) laneDigits(lo, hi int) []int64 {
	if d.nAdd+4 > d.maxAdd {
		d.Regularize()
	}
	d.nAdd += 4
	return d.dig[lo-d.minIdx : hi-d.minIdx+1]
}

// addChunks splits the 53-bit significand m·2^e into W-bit digit-aligned
// chunks and adds them (subtracts when neg) to the digit string. The
// shifted significand occupies at most 53+W−1 ≤ 84 bits, held in hi:lo.
func (d *Dense) addChunks(neg bool, m uint64, e int) {
	k := floorDiv(e, int(d.w))
	off := uint(e - k*int(d.w))
	lo := m << off
	hi := uint64(0)
	if off != 0 {
		hi = m >> (64 - off)
	}
	i := k - d.minIdx
	w := d.w
	um := uint64(d.mask)
	if neg {
		for lo != 0 || hi != 0 {
			d.dig[i] -= int64(lo & um)
			lo = lo>>w | hi<<(64-w)
			hi >>= w
			i++
		}
		return
	}
	for lo != 0 || hi != 0 {
		d.dig[i] += int64(lo & um)
		lo = lo>>w | hi<<(64-w)
		hi >>= w
		i++
	}
}

// Sub deletes x from the accumulated sum exactly — the group inverse of
// Add, made possible by the signed-digit representation: the digit updates
// are the sign-flipped chunks of x, so a+x−x is bit-for-bit a. Non-finite
// values are deleted from the out-of-band multiset (Sub(+Inf) after
// Add(+Inf) restores the prior state; it is not Add(−Inf)).
func (d *Dense) Sub(x float64) {
	c := fpnum.Classify(x)
	if c != fpnum.ClassFinite {
		d.sp.unnote(c)
		return
	}
	if d.nAdd >= d.maxAdd {
		d.Regularize()
	}
	d.nAdd++
	neg, m, e := fpnum.Decompose(x)
	d.addChunks(!neg, m, e)
}

// SubSlice deletes every element of xs exactly, through the same lane
// pass as AddSlice with the direction sign folded into the update mask.
func (d *Dense) SubSlice(xs []float64) {
	if d.w != blockWidth {
		for _, x := range xs {
			d.Sub(x)
		}
		return
	}
	laneSlice(d, xs, 1)
}

// Neg negates the represented value in place: every digit flips sign (the
// signed-digit string of −v) and the tracked infinity multiplicities swap.
// A regularized accumulator stays regularized — the (α,β) range is
// symmetric — and the lazy-add budget is unchanged.
func (d *Dense) Neg() {
	for i := range d.dig {
		d.dig[i] = -d.dig[i]
	}
	d.sp.negate()
}

// AddNeg subtracts o's exact contents from d — the group inverse of Merge,
// leaving o unmodified. Deleting a previously merged accumulator restores
// the prior state bit-for-bit, including the out-of-band special
// multiplicities (which are subtracted, not sign-swapped: AddNeg deletes
// o's summands rather than merging their negations). Widths must match.
func (d *Dense) AddNeg(o *Dense) {
	if d.w != o.w {
		panic("accum: width mismatch in AddNeg")
	}
	d.sp.unmerge(o.sp)
	if d.nAdd+o.nAdd+1 > d.maxAdd {
		d.Regularize() // o.nAdd ≤ maxAdd by construction, so this suffices
	}
	for i, v := range o.dig {
		d.dig[i] -= v
	}
	d.nAdd += o.nAdd + 1
}

// addInt64 accumulates the exact value v·2^e. Each digit receives at most
// R−1 regardless of the magnitude of v, so the lazy-add accounting of Add
// applies unchanged.
func (d *Dense) addInt64(v int64, e int) {
	if v == 0 {
		return
	}
	if d.nAdd >= d.maxAdd {
		d.Regularize()
	}
	d.nAdd++
	neg := v < 0
	m := uint64(v)
	if neg {
		m = -m
	}
	d.addChunks(neg, m, e)
}

// Regularize restores every digit to the (α,β) range [−(R−1), R−1] without
// changing the represented value. The carry step is a single low-to-high
// signed-carry pass: dᵢ ← v mod R (in [0, R−1]) with carry ⌊v/R⌋ into the
// next digit; the topmost digit keeps its carry unreduced (the headroom
// digits guarantee it stays small, and a globally negative value leaves the
// top digit negative).
func (d *Dense) Regularize() {
	var c int64
	last := len(d.dig) - 1
	for i := 0; i < last; i++ {
		v := d.dig[i] + c
		d.dig[i] = v & d.mask
		c = v >> d.w
	}
	d.dig[last] += c
	d.nAdd = 0
}

// AddRegularized adds o into d using the paper's Lemma 1 carry-free
// parallel addition. Both accumulators must be regularized (all digits in
// [−α, β]); the result is again regularized, with every output digit
// computable independently given only its own component sum and its lower
// neighbor's — the property that makes superaccumulator addition O(1)-depth
// on a PRAM. Widths must match.
func (d *Dense) AddRegularized(o *Dense) {
	if d.w != o.w {
		panic("accum: width mismatch in AddRegularized")
	}
	d.sp.merge(o.sp)
	r := d.radix
	var carryIn int64
	for i := range d.dig {
		p := d.dig[i] + o.dig[i] // Pᵢ ∈ [−2α, 2β]
		var carryOut int64
		switch {
		case p >= r-1:
			carryOut = 1
		case p <= -r+1:
			carryOut = -1
		}
		w := p - carryOut*r // Wᵢ ∈ [−(α−1), β−1]
		d.dig[i] = w + carryIn
		carryIn = carryOut
	}
	if carryIn != 0 {
		panic("accum: carry out of top superaccumulator component")
	}
	d.nAdd = 0
}

// Merge adds o into d without requiring either side to be regularized,
// regularizing first if the combined lazy-add budget would overflow.
func (d *Dense) Merge(o *Dense) {
	if d.w != o.w {
		panic("accum: width mismatch in Merge")
	}
	d.sp.merge(o.sp)
	if d.nAdd+o.nAdd+1 > d.maxAdd {
		d.Regularize() // o.nAdd ≤ maxAdd by construction, so this suffices
	}
	for i, v := range o.dig {
		d.dig[i] += v
	}
	d.nAdd += o.nAdd + 1
}

// IsRegularized reports whether every digit lies in the (α,β) range
// [−(R−1), R−1]. It is the Lemma 1 invariant checked by the property
// tests.
func (d *Dense) IsRegularized() bool {
	for _, v := range d.dig {
		if v <= -d.radix || v >= d.radix {
			return false
		}
	}
	return true
}

// IsZero reports whether the accumulated exact sum is zero (and no
// non-finite summand was seen).
func (d *Dense) IsZero() bool {
	if d.sp.any() {
		return false
	}
	for _, v := range d.dig {
		if v != 0 {
			return false
		}
	}
	return true
}

// Round returns the correctly rounded (round-to-nearest-even) float64 value
// of the exact accumulated sum, implementing steps 6–7 of the paper's PRAM
// algorithm. The accumulator is left regularized but its value is unchanged.
func (d *Dense) Round() float64 {
	if v, ok := d.sp.resolved(); ok {
		return v
	}
	d.Regularize()
	return roundDigits(d.dig, d.minIdx, d.w)
}

// Clone returns an independent copy of d.
func (d *Dense) Clone() *Dense {
	c := *d
	c.dig = make([]int64, len(d.dig))
	copy(c.dig, d.dig)
	return &c
}

// ToSparse converts d to the sparse (active components) representation.
// The accumulator is regularized as a side effect.
func (d *Dense) ToSparse() *Sparse {
	d.Regularize()
	s := &Sparse{w: d.w, sp: d.sp}
	for i, v := range d.dig {
		if v != 0 {
			s.idx = append(s.idx, int32(d.minIdx+i))
			s.dig = append(s.dig, v)
		}
	}
	return s
}

// EncodedSize returns the bytes a dense binary encoding would occupy; used
// by the MapReduce engine to account shuffle volume.
func (d *Dense) EncodedSize() int { return 8 * len(d.dig) }

// Digits returns the digit string and the index of its first element, for
// inspection by tests and the PRAM simulator. The slice aliases d's state.
func (d *Dense) Digits() ([]int64, int) {
	return d.dig, d.minIdx
}

// String renders the nonzero digits for debugging.
func (d *Dense) String() string {
	out := "Dense{"
	first := true
	for i := len(d.dig) - 1; i >= 0; i-- {
		if d.dig[i] != 0 {
			if !first {
				out += " "
			}
			out += fmt.Sprintf("%d:%d", d.minIdx+i, d.dig[i])
			first = false
		}
	}
	return out + "}"
}
