package accum

import "parsum/internal/fpnum"

// Small is a Neal-style "small superaccumulator" (Neal 2015, as used by the
// paper's MapReduce experiments): a dense array of 64-bit signed chunks at a
// fixed 32-bit spacing covering the full double-precision range. Unlike
// Window it maintains no (α,β) GSD invariant: merging two accumulators
// requires a full sequential carry-propagation pass, which is exactly the
// carry chain the paper's representation eliminates (see the carry-depth
// ablation in internal/pram).
type Small struct {
	dig    []int64
	minIdx int
	nAdd   int64
	maxAdd int64
	sp     special
}

const smallWidth = 32

// NewSmall returns an empty small superaccumulator.
func NewSmall() *Small {
	minIdx, maxIdx := digitBounds(smallWidth)
	return &Small{
		dig:    make([]int64, maxIdx-minIdx+1),
		minIdx: minIdx,
		maxAdd: maxLazyAdds(smallWidth),
	}
}

// Add accumulates x exactly.
func (s *Small) Add(x float64) {
	c := fpnum.Classify(x)
	if c != fpnum.ClassFinite {
		s.sp.note(c)
		return
	}
	if s.nAdd >= s.maxAdd {
		s.Propagate()
	}
	s.nAdd++
	neg, m, e := fpnum.Decompose(x)
	s.addChunks(neg, m, e)
}

// addChunks splits the significand m·2^e into 32-bit chunks and adds them
// (subtracts when neg) to the chunk array.
func (s *Small) addChunks(neg bool, m uint64, e int) {
	k := floorDiv(e, smallWidth)
	off := uint(e - k*smallWidth)
	lo := m << off
	hi := uint64(0)
	if off != 0 {
		hi = m >> (64 - off)
	}
	i := k - s.minIdx
	if neg {
		for lo != 0 || hi != 0 {
			s.dig[i] -= int64(lo & 0xFFFFFFFF)
			lo = lo>>smallWidth | hi<<smallWidth
			hi >>= smallWidth
			i++
		}
		return
	}
	for lo != 0 || hi != 0 {
		s.dig[i] += int64(lo & 0xFFFFFFFF)
		lo = lo>>smallWidth | hi<<smallWidth
		hi >>= smallWidth
		i++
	}
}

// AddSlice accumulates every element of xs exactly through the carry-save
// lane pass (see lanes.go): Small's chunk spacing is the canonical 32-bit
// width, so it shares the L1-resident lane cache machinery with Window —
// the only difference is where a drain lands. The result is
// bit-identical to calling Add per element.
func (s *Small) AddSlice(xs []float64) {
	laneSlice(s, xs, 0)
}

// AddSlice32 accumulates every element of a float32 slice exactly via the
// narrow-lane float32 pass.
func (s *Small) AddSlice32(xs []float32) {
	laneSlice32(s, xs, 0)
}

// SubSlice32 deletes every element of a float32 slice exactly — the group
// inverse of AddSlice32.
func (s *Small) SubSlice32(xs []float32) {
	laneSlice32(s, xs, 1)
}

// laneDigits is the laneHost drain target.
func (s *Small) laneDigits(lo, hi int) []int64 {
	if s.nAdd+4 > s.maxAdd {
		s.Propagate()
	}
	s.nAdd += 4
	return s.dig[lo-s.minIdx : hi-s.minIdx+1]
}

// Sub deletes x from the accumulated sum exactly — the group inverse of
// Add. Non-finite values are deleted from the out-of-band multiset (see
// Window.Sub).
func (s *Small) Sub(x float64) {
	c := fpnum.Classify(x)
	if c != fpnum.ClassFinite {
		s.sp.unnote(c)
		return
	}
	if s.nAdd >= s.maxAdd {
		s.Propagate()
	}
	s.nAdd++
	neg, m, e := fpnum.Decompose(x)
	s.addChunks(!neg, m, e)
}

// SubSlice deletes every element of xs exactly, through the same lane
// pass as AddSlice with the direction sign folded into the update mask.
func (s *Small) SubSlice(xs []float64) {
	laneSlice(s, xs, 1)
}

// Neg negates the represented value in place: every chunk flips sign and
// the infinity multiplicities swap. Chunks may leave the canonical
// [0, 2^32) form; the next Propagate restores it.
func (s *Small) Neg() {
	for i := range s.dig {
		s.dig[i] = -s.dig[i]
	}
	s.sp.negate()
}

// AddNeg subtracts o's exact contents from s — the group inverse of Merge,
// leaving o unmodified. Special multiplicities are subtracted, not
// sign-swapped (AddNeg deletes o's summands).
func (s *Small) AddNeg(o *Small) {
	s.sp.unmerge(o.sp)
	if s.nAdd+o.nAdd+1 > s.maxAdd {
		s.Propagate() // o.nAdd ≤ maxAdd by construction, so this suffices
	}
	for i, v := range o.dig {
		s.dig[i] -= v
	}
	s.Propagate()
}

// Propagate performs the full sequential carry-propagation pass, leaving
// every chunk but the topmost in [0, 2^32). This is the inherently
// sequential step the paper's carry-free representation avoids.
func (s *Small) Propagate() {
	var c int64
	last := len(s.dig) - 1
	for i := 0; i < last; i++ {
		v := s.dig[i] + c
		s.dig[i] = v & 0xFFFFFFFF
		c = v >> smallWidth
	}
	s.dig[last] += c
	s.nAdd = 0
}

// Merge adds o into s, propagating carries eagerly (the carry-propagating
// baseline behaviour).
func (s *Small) Merge(o *Small) {
	s.sp.merge(o.sp)
	if s.nAdd+o.nAdd+1 > s.maxAdd {
		s.Propagate() // o.nAdd ≤ maxAdd by construction, so this suffices
	}
	for i, v := range o.dig {
		s.dig[i] += v
	}
	s.Propagate()
}

// Round returns the correctly rounded float64 value of the exact sum.
func (s *Small) Round() float64 {
	if v, ok := s.sp.resolved(); ok {
		return v
	}
	s.Propagate()
	return roundDigits(s.dig, s.minIdx, smallWidth)
}

// Reset returns the accumulator to the empty state.
func (s *Small) Reset() {
	for i := range s.dig {
		s.dig[i] = 0
	}
	s.nAdd = 0
	s.sp = special{}
}

// Clone returns an independent copy of s.
func (s *Small) Clone() *Small {
	c := *s
	c.dig = append([]int64(nil), s.dig...)
	return &c
}

// EncodedSize returns the bytes a dense binary encoding would occupy; used
// by the MapReduce engine to account shuffle volume.
func (s *Small) EncodedSize() int { return 8 * len(s.dig) }
