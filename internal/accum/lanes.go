package accum

import (
	"math"
	"math/bits"

	"parsum/internal/fpnum"
)

// Carry-save lane cache: the L1-resident middle tier of the digit
// hierarchy (see DESIGN.md §3e). A full-range digit string spans 70
// int64 digits (560 B) but a bulk insert touches it at data-dependent
// offsets, so wide-exponent streams turn accumulation into scattered
// read-modify-writes plus per-block classification. The lane cache
// replaces that with a fixed, full-range mirror sized to stay hot in L1:
// one 128-bit two's-complement accumulator per 32-bit exponent window,
//
//	laneWindows = 65 windows × 16 B = 1040 B (padded to lanePad = 128),
//
// covering every window index k = ⌊e/32⌋ ∈ [−34, 30] a finite double (or
// the saturated exponent field of a special) can decompose to. Every
// element of a bulk slice — regardless of exponent spread — lands in
// exactly one window with three straight-line updates:
//
//	lo += m<<off (with carry), hi += m>>(64−off) + carry
//
// negated through a mask when the element (or the slice direction) is
// negative. There is no per-block prescan, no zero test (a zero decomposes
// to m = 0 and adds nothing), no min/max exponent fold, and no branch: the
// single data-dependent quantity is the window index, and the whole window
// array is always resident.
//
// Specials are handled optimistically: ±Inf and NaN have the saturated
// biased exponent 0x7FF, which the branch-free decompose maps to window
// index 64 — in bounds — so the hot loop just ORs a saturation flag. If
// the flag is set after a block, a repair pass subtracts the bogus lane
// contribution of each non-finite element and routes it through the scalar
// Add/Sub path, whose out-of-band special accounting is the oracle.
//
// Exactness: a finite x = ±m·2^e with window k = ⌊e/32⌋ and off = e − 32k
// contributes exactly ±(m<<off) · 2^(32k) — at most 53+31 = 84 bits, so it
// fits a 128-bit window accumulator with 2^43 headroom. The cache as a
// whole represents Σ_k window_k · 2^(32k) in two's complement; draining a
// window into the canonical digits splits it into four exact digit-aligned
// pieces (see drain), so a drain is value-preserving by construction, and
// the post-Regularize digit string is bit-identical to the scalar path's.
//
// The cache is call-scoped: each bulk call keeps one on its own stack and
// drains it before returning, so no accumulator holds lanes between calls
// and every reader sees the whole value in the digits.
const (
	// blockWidth is the digit width the lane cache specializes for: 2^5,
	// so window indexing is a shift. It is accum.DefaultWidth — the width
	// every registered engine runs at; other widths take the scalar path.
	blockWidth = 32
	// blockLen is the granularity of special repair and budget checks in
	// laneSlice. Large enough to amortize the per-block bookkeeping to
	// noise, small enough that a special-containing block's repair rescan
	// stays cheap and cache-resident.
	blockLen = 256

	// laneWindows covers window indices ⌊−1074/32⌋ = −34 through
	// ⌊972/32⌋ = 30 (972 is where the saturated exponent field of a
	// special decomposes to; finite doubles stop at ⌊971/32⌋ = 30).
	laneWindows = 65
	// lanePad is the allocated window count: the next power of two above
	// laneWindows, so the hot loop's lane[t>>32&(lanePad-1)] indexing is
	// provably in bounds and compiles without a per-element bounds check.
	// Entries laneWindows..lanePad−1 are never written (every table entry
	// carries an index ≤ 64) and cost 1 KiB of always-zero padding.
	lanePad = 128
	// laneKBias maps window index k to array index k + laneKBias.
	laneKBias = 34

	expField = 0x7FF                       // biased-exponent field mask
	fracBits = 1<<52 - 1                   // stored-significand field mask
	expBias  = fpnum.Bias + fpnum.MantBits // e = biased − expBias for normals
)

// laneTab precomputes, per biased exponent field be, everything the hot
// loop needs that depends only on be:
//
//	bits  0-31  2^off — the window-offset multiplier (off = e mod 32 ≤ 31)
//	bits 32-38  k + laneKBias — the window array index, in [0, 64]
//	bit  39     nz — 0 for the denormal exponent, 1 otherwise
//	bit  40     spec — 1 iff be is saturated (±Inf or NaN)
//
// The multiplier turns the digit-alignment shifts into one widening
// multiply: m·2^off < 2^84, so bits.Mul64(m, 2^off) yields exactly the
// (hi, lo) = (m >> (64−off), m << off) pair the window update needs,
// without the variable shifts (three of them, each with a wrap guard on
// the default amd64 target) the shift formulation costs. One 16 KiB table
// replaces the whole per-element exponent ALU chain with a single load.
var laneTab = func() *[2048]uint64 {
	var t [2048]uint64
	for be := 0; be < 2048; be++ {
		nz := 1
		if be == 0 {
			nz = 0
		}
		e := be + (1 - nz) - expBias
		k := (e >> 5) + laneKBias
		off := uint(e) & 31
		v := uint64(1)<<off | uint64(k)<<32 | uint64(nz)<<39
		if be == expField {
			v |= 1 << 40
		}
		t[be] = v
	}
	return &t
}()

// laneMaxAdds bounds how many elements a lane cache may absorb between
// drains. Each element grows some window's |hi| by at most 2^20 + 1
// (m>>(64−off) ≤ 2^(84−64), plus the lo carry), so 2^41 adds keep
// |hi| < 2^61 + 2^41 — two bits of headroom below int64 overflow. It is a
// variable, not a constant, only so the flush-boundary tests can force
// mid-call drains without 2^41-element inputs.
var laneMaxAdds = int64(1) << 41

// lane128 is one window's two's-complement 128-bit accumulator.
type lane128 struct {
	lo uint64
	hi int64
}

// laneCache is the lane array plus its add budget. The zero value is the
// empty cache.
type laneCache struct {
	lane [lanePad]lane128
	n    int64 // elements absorbed since the last drain; ≤ laneMaxAdds
}

// accum folds every element of blk into the lane array: add when
// dirNeg == 0, delete (the group inverse) when dirNeg == 1. It returns
// nonzero iff blk contains a non-finite element, whose bogus lane
// contribution the caller must undo via repair. The caller charges lc.n.
func (lc *laneCache) accum(blk []float64, dirNeg uint64) uint64 {
	var orAcc uint64
	tab := laneTab
	for _, x := range blk {
		b := math.Float64bits(x)
		t := tab[int(b>>52)&expField]
		orAcc |= t // bit 40 records any saturated exponent
		m := b&fracBits | (t&(1<<39))<<13
		hi, lo := bits.Mul64(m, t&0xFFFFFFFF) // exactly m<<off, m>>(64-off)
		k := (t >> 32) & (lanePad - 1)
		sgn := (b >> 63) ^ dirNeg
		smask := -sgn
		p := &lc.lane[k]
		var c uint64
		p.lo, c = bits.Add64(p.lo, lo^smask, sgn)
		p.hi += int64(hi^smask) + int64(c)
	}
	return orAcc >> 40 & 1
}

// repair rescans blk after accum reported a saturated exponent: each
// non-finite element's lane contribution is subtracted back out (the same
// decompose with the direction flipped) and the element is replayed
// through the scalar Add/Sub path, which tracks it out of band.
func (lc *laneCache) repair(blk []float64, dirNeg uint64, sc scalarAdder) {
	for _, x := range blk {
		b := math.Float64bits(x)
		be := int(b>>52) & expField
		if be != expField {
			continue
		}
		m := b&fracBits | 1<<52
		e := be - expBias
		k := (e >> 5) + laneKBias
		off := uint(e) & 31
		lo := m << off
		hi := m >> (64 - off)
		sgn := (b >> 63) ^ dirNeg ^ 1 // flipped: undo the accum update
		smask := -sgn
		p := &lc.lane[k]
		var c uint64
		p.lo, c = bits.Add64(p.lo, lo^smask, sgn)
		p.hi += int64(hi^smask) + int64(c)
		if dirNeg == 0 {
			sc.Add(x)
		} else {
			sc.Sub(x)
		}
	}
}

// laneTab32 is laneTab for the binary32 exponent field (same layout, nz at
// bit 39 scaled for the 23-bit fraction): e = be − 150 ∈ [−149, 105], so
// every f32 window index lands in [29, 37] — nine windows, 144 B of hot
// state — and m·2^off ≤ 2^55 always fits the low word alone.
var laneTab32 = func() *[256]uint64 {
	var t [256]uint64
	for be := 0; be < 256; be++ {
		nz := 1
		if be == 0 {
			nz = 0
		}
		e := be + (1 - nz) - f32ExpBias
		k := (e >> 5) + laneKBias
		off := uint(e) & 31
		v := uint64(1)<<off | uint64(k)<<32 | uint64(nz)<<39
		if be == 0xFF {
			v |= 1 << 40
		}
		t[be] = v
	}
	return &t
}()

// accum32 is the float32 narrow-lane pass: the same window geometry with a
// 24-bit significand, single-word updates (the shifted significand never
// reaches the high word, so hi moves only through the sign mask and
// carry), and a 2 KiB exponent table.
func (lc *laneCache) accum32(blk []float32, dirNeg uint64) uint32 {
	var orAcc uint64
	tab := laneTab32
	for _, x := range blk {
		b := math.Float32bits(x)
		t := tab[b>>23&0xFF]
		orAcc |= t
		m := uint64(b&0x7FFFFF) | (t&(1<<39))>>16
		v := m * (t & 0xFFFFFFFF) // exactly m<<off: m·2^off ≤ 2^55
		k := (t >> 32) & (lanePad - 1)
		sgn := uint64(b>>31) ^ dirNeg
		smask := -sgn
		p := &lc.lane[k]
		var c uint64
		p.lo, c = bits.Add64(p.lo, v^smask, sgn)
		p.hi += int64(smask) + int64(c)
	}
	return uint32(orAcc >> 40 & 1)
}

// repair32 is repair for the float32 pass; widening a non-finite float32
// preserves its class, so the scalar float64 path remains the oracle.
func (lc *laneCache) repair32(blk []float32, dirNeg uint64, sc scalarAdder) {
	for _, x := range blk {
		b := math.Float32bits(x)
		be := int(b>>23) & 0xFF
		if be != 0xFF {
			continue
		}
		m := uint64(b&0x7FFFFF) | 1<<23
		e := be - f32ExpBias
		k := (e >> 5) + laneKBias
		off := uint(e) & 31
		v := m << off
		sgn := uint64(b>>31) ^ dirNeg ^ 1
		smask := -sgn
		p := &lc.lane[k]
		var c uint64
		p.lo, c = bits.Add64(p.lo, v^smask, sgn)
		p.hi += int64(smask) + int64(c)
		if dirNeg == 0 {
			sc.Add(float64(x))
		} else {
			sc.Sub(float64(x))
		}
	}
}

// f32ExpBias: e = biased − 127 − 23 for normal float32s.
const f32ExpBias = 150

// laneHost is the seam the bulk passes drain through: a full-range
// accumulator at the canonical 32-bit digit width.
type laneHost interface {
	scalarAdder
	// laneDigits charges the lazy-add budget for one drain (four adds,
	// see drain) and returns the digits with indices lo through hi,
	// growing the representation first if it does not cover them.
	laneDigits(lo, hi int) []int64
}

// scalarAdder is the per-element Add/Sub surface every representation
// already has; the lane paths replay non-finite elements through it, so
// the scalar path stays the single oracle for out-of-band state.
type scalarAdder interface {
	Add(x float64)
	Sub(x float64)
}

// laneSlice is the bulk dispatcher behind AddSlice (dirNeg = 0) and
// SubSlice (dirNeg = 1) at the canonical width. The lane cache lives on
// this call's stack: blocks of up to blockLen elements accumulate into it,
// and it drains into h's digits before the call returns — mid-call only
// when the add budget would be exceeded. Block granularity exists solely
// to localize special repair and budget checks.
func laneSlice(h laneHost, xs []float64, dirNeg uint64) {
	var lc laneCache
	for len(xs) > 0 {
		n := min(len(xs), blockLen)
		if r := laneMaxAdds - lc.n; int64(n) > r {
			if r <= 0 {
				lc.drain(h)
				continue
			}
			n = int(r)
		}
		blk := xs[:n]
		xs = xs[n:]
		lc.n += int64(n)
		if lc.accum(blk, dirNeg) != 0 {
			lc.repair(blk, dirNeg, h)
		}
	}
	lc.drain(h)
}

// laneSlice32 is laneSlice for float32 input.
func laneSlice32(h laneHost, xs []float32, dirNeg uint64) {
	var lc laneCache
	for len(xs) > 0 {
		n := min(len(xs), blockLen)
		if r := laneMaxAdds - lc.n; int64(n) > r {
			if r <= 0 {
				lc.drain(h)
				continue
			}
			n = int(r)
		}
		blk := xs[:n]
		xs = xs[n:]
		lc.n += int64(n)
		if lc.accum32(blk, dirNeg) != 0 {
			lc.repair32(blk, dirNeg, h)
		}
	}
	lc.drain(h)
}

// drain adds every nonzero window into h's digits and empties the cache.
// At W = 32 window i is digit k = i − laneKBias, so its 128-bit value is
// four digit-aligned pieces: lo's two 32-bit halves at digits k and k+1,
// hi's low half at k+2 and hi's arithmetic-shifted high half at k+3. Each
// piece is below R = 2^32 in magnitude and a digit receives at most one
// piece of each kind, so one drain grows any digit by less than 4R — the
// four lazy adds laneDigits charges.
func (lc *laneCache) drain(h laneHost) {
	lc.n = 0
	lo, hi := 0, laneWindows-1
	for lo <= hi && lc.lane[lo] == (lane128{}) {
		lo++
	}
	if lo > hi {
		return
	}
	for lc.lane[hi] == (lane128{}) {
		hi--
	}
	dig := h.laneDigits(lo-laneKBias, hi-laneKBias+3)
	// Sum each digit's pieces in registers and store it once: c1, c2, c3
	// carry the pieces earlier windows owe the next three digits.
	var c1, c2, c3 int64
	n := hi - lo + 1
	for i, p := range lc.lane[lo : hi+1] {
		dig[i] += int64(uint32(p.lo)) + c1
		c1 = int64(p.lo>>32) + c2
		c2 = int64(uint32(p.hi)) + c3
		c3 = p.hi >> 32
	}
	dig[n] += c1
	dig[n+1] += c2
	dig[n+2] += c3
	clear(lc.lane[lo : hi+1])
}
