package accum

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary wire format for superaccumulators, so partial sums can be
// exchanged between processes — the role the paper's reducers' "write the
// resulting sparse superaccumulator to the output" plays on HDFS. The
// format is endian-stable by construction: every multi-byte quantity is a
// varint, so the same bytes decode to the same value on any platform.
//
// Layout (little-endian varints):
//
//	magic   byte = 0xA5
//	kind    byte ('S' sparse/window, 'D' dense window, 'N' Neal small)
//	version byte = 1
//	width   byte (digit width W)
//	flags   byte (bit 0 NaN, bit 1 +Inf, bit 2 −Inf, bit 3 extended counts)
//	[flags bit 3 only] 3 × zigzag-varint (NaN, +Inf, −Inf multiplicities)
//	count   uvarint (number of components)
//	count × { idx zigzag-varint, dig zigzag-varint }
//
// Non-finite summands are tracked as signed multiplicities (deletion is a
// decrement — see the special type). When every multiplicity is 0 or 1
// the flags byte carries them as presence bits, bit-identical to the
// pre-group encoding; any other multiplicity (several NaNs, or a net
// deletion) sets flags bit 3 — with bits 0–2 clear — and ships the three
// signed counts as zigzag varints, so exact deletion survives the wire.
//
// Components must be strictly ascending by index, every index must lie in
// the digit range a width-W accumulator over float64 sums can populate
// (digitBounds), and digits must lie in the (α,β) range. Decoding
// validates everything it reads before allocating anything proportional
// to it, so arbitrary untrusted bytes can neither panic the decoder nor
// make it allocate more than O(len(data)).

const (
	codecMagic   = 0xA5
	codecVersion = 1
)

// Codec errors.
var (
	ErrCodecTruncated = errors.New("accum: truncated encoding")
	ErrCodecInvalid   = errors.New("accum: invalid encoding")
)

// appendHeader emits the fixed header. Special multiplicities in {0, 1}
// encode as presence bits (the historical layout, so partials of ordinary
// sums are byte-identical to the pre-group format); anything else — a
// repeated special, or a net deletion — switches to the extended-counts
// form (flags bit 3 + three zigzag varints), keeping the wire
// value-faithful for every reachable accumulator state.
func appendHeader(buf []byte, kind byte, w uint, sp special) []byte {
	inPresenceRange := func(c int64) bool { return c == 0 || c == 1 }
	if !inPresenceRange(sp.nan) || !inPresenceRange(sp.posInf) || !inPresenceRange(sp.negInf) {
		buf = append(buf, codecMagic, kind, codecVersion, byte(w), 8)
		buf = binary.AppendVarint(buf, sp.nan)
		buf = binary.AppendVarint(buf, sp.posInf)
		return binary.AppendVarint(buf, sp.negInf)
	}
	var flags byte
	if sp.nan > 0 {
		flags |= 1
	}
	if sp.posInf > 0 {
		flags |= 2
	}
	if sp.negInf > 0 {
		flags |= 4
	}
	return append(buf, codecMagic, kind, codecVersion, byte(w), flags)
}

func parseHeader(data []byte, wantKind byte) (w uint, sp special, rest []byte, err error) {
	if len(data) < 5 {
		return 0, sp, nil, ErrCodecTruncated
	}
	if data[0] != codecMagic {
		return 0, sp, nil, fmt.Errorf("%w: bad magic %#x", ErrCodecInvalid, data[0])
	}
	if data[1] != wantKind {
		return 0, sp, nil, fmt.Errorf("%w: kind %q, want %q", ErrCodecInvalid, data[1], wantKind)
	}
	if data[2] != codecVersion {
		return 0, sp, nil, fmt.Errorf("%w: unsupported version %d", ErrCodecInvalid, data[2])
	}
	w = uint(data[3])
	if w < MinWidth || w > MaxWidth {
		return 0, sp, nil, fmt.Errorf("%w: width %d out of range", ErrCodecInvalid, w)
	}
	flags := data[4]
	if flags > 8 {
		// Bits 0–2 are presence bits, bit 3 selects the extended-counts
		// form with bits 0–2 clear; every other combination is invalid.
		return 0, sp, nil, fmt.Errorf("%w: unknown flags %#x", ErrCodecInvalid, flags)
	}
	rest = data[5:]
	if flags == 8 {
		for _, dst := range []*int64{&sp.nan, &sp.posInf, &sp.negInf} {
			c, n := binary.Varint(rest)
			if n == 0 {
				return 0, special{}, nil, ErrCodecTruncated
			}
			if n < 0 {
				return 0, special{}, nil, fmt.Errorf("%w: special count varint overflows int64", ErrCodecInvalid)
			}
			*dst = c
			rest = rest[n:]
		}
		return w, sp, rest, nil
	}
	if flags&1 != 0 {
		sp.nan = 1
	}
	if flags&2 != 0 {
		sp.posInf = 1
	}
	if flags&4 != 0 {
		sp.negInf = 1
	}
	return w, sp, rest, nil
}

func appendComponents(buf []byte, idx []int32, dig []int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(idx)))
	for k := range idx {
		buf = binary.AppendVarint(buf, int64(idx[k]))
		buf = binary.AppendVarint(buf, dig[k])
	}
	return buf
}

func parseComponents(data []byte, w uint) (idx []int32, dig []int64, err error) {
	count, n := binary.Uvarint(data)
	if n == 0 {
		return nil, nil, ErrCodecTruncated
	}
	if n < 0 {
		return nil, nil, fmt.Errorf("%w: component count varint overflows uint64", ErrCodecInvalid)
	}
	data = data[n:]
	// Every component costs at least two bytes (one per varint), so a count
	// the remaining buffer cannot possibly hold is a lie about the input
	// length — reject it before sizing any allocation from it.
	if count > uint64(len(data))/2 {
		return nil, nil, fmt.Errorf("%w: %d components claimed but only %d bytes follow", ErrCodecTruncated, count, len(data))
	}
	// Strictly ascending indices confined to the width-W digit range also
	// bound the component count by that range's span.
	minIdx, maxIdx := digitBounds(w)
	if count > uint64(maxIdx-minIdx+1) {
		return nil, nil, fmt.Errorf("%w: %d components cannot be strictly ascending in digit range [%d,%d]", ErrCodecInvalid, count, minIdx, maxIdx)
	}
	r := int64(1) << w
	idx = make([]int32, 0, count)
	dig = make([]int64, 0, count)
	prev := int64(minIdx) - 1
	for k := uint64(0); k < count; k++ {
		i, n := binary.Varint(data)
		if n == 0 {
			return nil, nil, ErrCodecTruncated
		}
		if n < 0 {
			return nil, nil, fmt.Errorf("%w: component index varint overflows int64", ErrCodecInvalid)
		}
		data = data[n:]
		d, n := binary.Varint(data)
		if n == 0 {
			return nil, nil, ErrCodecTruncated
		}
		if n < 0 {
			return nil, nil, fmt.Errorf("%w: digit varint overflows int64", ErrCodecInvalid)
		}
		data = data[n:]
		if i < int64(minIdx) || i > int64(maxIdx) {
			return nil, nil, fmt.Errorf("%w: component index %d outside digit range [%d,%d] for W=%d", ErrCodecInvalid, i, minIdx, maxIdx, w)
		}
		if i <= prev {
			return nil, nil, fmt.Errorf("%w: component indices not strictly ascending", ErrCodecInvalid)
		}
		if d <= -r || d >= r {
			return nil, nil, fmt.Errorf("%w: digit %d outside (α,β) range for W=%d", ErrCodecInvalid, d, w)
		}
		prev = i
		idx = append(idx, int32(i))
		dig = append(dig, d)
	}
	if len(data) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes", ErrCodecInvalid, len(data))
	}
	return idx, dig, nil
}

// MarshalBinary encodes s. It implements encoding.BinaryMarshaler.
func (s *Sparse) MarshalBinary() ([]byte, error) {
	if !s.IsRegularized() {
		return nil, fmt.Errorf("%w: accumulator not regularized", ErrCodecInvalid)
	}
	buf := appendHeader(nil, 'S', s.w, s.sp)
	return appendComponents(buf, s.idx, s.dig), nil
}

// UnmarshalBinary decodes into s, replacing its contents. It implements
// encoding.BinaryUnmarshaler and validates the full encoding.
func (s *Sparse) UnmarshalBinary(data []byte) error {
	w, sp, rest, err := parseHeader(data, 'S')
	if err != nil {
		return err
	}
	idx, dig, err := parseComponents(rest, w)
	if err != nil {
		return err
	}
	s.w, s.sp, s.idx, s.dig = w, sp, idx, dig
	return nil
}

// Kinds of Window payload. Both carry the same σ-sized layout — the
// nonzero digits of the regularized window — so a value encodes to the
// same components under either; the kind byte records which engine wrote
// the partial, and a decoder accepts only its own.
const (
	KindSparse byte = 'S'
	KindDense  byte = 'D'
)

// MarshalKind encodes a's value as a payload of the given kind
// (KindSparse or KindDense): the nonzero digits of the regularized
// window, written straight from its digit string. Regularize leaves a
// negative value's top collapsed to one −1 digit, so the payload is
// σ-sized whatever the sign. The window is regularized as a side effect.
func (a *Window) MarshalKind(kind byte) []byte {
	a.Regularize()
	n := 0
	for _, v := range a.win {
		if v != 0 {
			n++
		}
	}
	buf := appendHeader(nil, kind, a.w, a.sp)
	buf = binary.AppendUvarint(buf, uint64(n))
	for i, v := range a.win {
		if v != 0 {
			buf = binary.AppendVarint(buf, int64(a.base+i))
			buf = binary.AppendVarint(buf, v)
		}
	}
	return buf
}

// UnmarshalKind decodes a payload of the given kind (KindSparse or
// KindDense) into a, replacing its contents. The decoded index span is
// bounded by digitBounds, so a malicious payload cannot force a large
// window allocation. A negative value's top may arrive expanded, as the
// run (R−1, …, R−1, −1) that dense payloads carried before they became
// σ-sized; it is stored collapsed, so the window covers only the value's
// own span.
func (a *Window) UnmarshalKind(kind byte, data []byte) error {
	w, sp, rest, err := parseHeader(data, kind)
	if err != nil {
		return err
	}
	idx, dig, err := parseComponents(rest, w)
	if err != nil {
		return err
	}
	idx, dig = collapseTop(w, idx, dig)
	a.w, a.sp, a.maxAdd, a.nAdd = w, sp, maxLazyAdds(w), 1
	a.win, a.base = nil, 0
	if len(idx) > 0 {
		lo, hi := int(idx[0]), int(idx[len(idx)-1])
		a.base = lo
		a.win = make([]int64, hi-lo+1)
		for k, ix := range idx {
			a.win[int(ix)-lo] = dig[k]
		}
	}
	return nil
}

// MarshalBinary encodes a's value as a sparse ('S') payload — a Window is
// a sparse superaccumulator with contiguous storage, so the two share a
// wire kind and decode into each other. It implements
// encoding.BinaryMarshaler.
func (a *Window) MarshalBinary() ([]byte, error) { return a.MarshalKind(KindSparse), nil }

// UnmarshalBinary decodes a sparse ('S') payload into a. It implements
// encoding.BinaryUnmarshaler.
func (a *Window) UnmarshalBinary(data []byte) error { return a.UnmarshalKind(KindSparse, data) }

// collapseTop rewrites a top run (R−1, …, R−1, −1) of consecutive
// components — a negative value's top, as carry propagation over the
// whole digit range leaves it — to one −1 at the run's start
// (−R^t + Σ_{j=s}^{t−1} (R−1)·R^j = −R^s), and returns the shortened
// lists. dig is modified in place.
func collapseTop(w uint, idx []int32, dig []int64) ([]int32, []int64) {
	n := len(dig)
	if n == 0 || dig[n-1] != -1 {
		return idx, dig
	}
	mask := int64(1)<<w - 1
	s := n - 1
	for s > 0 && dig[s-1] == mask && idx[s-1] == idx[s]-1 {
		s--
	}
	dig[s] = -1
	return idx[:s+1], dig[:s+1]
}

// MarshalBinary encodes s compactly (nonzero chunks only, kind 'N'), with
// a negative value's top run collapsed to one −1 chunk as in the window
// payloads, so a partial is σ-sized whatever its sign. The accumulator's
// carries are propagated as a side effect. It implements
// encoding.BinaryMarshaler.
func (s *Small) MarshalBinary() ([]byte, error) {
	s.Propagate()
	var idx []int32
	var dig []int64
	for i, v := range s.dig {
		if v != 0 {
			idx = append(idx, int32(s.minIdx+i))
			dig = append(dig, v)
		}
	}
	idx, dig = collapseTop(smallWidth, idx, dig)
	buf := appendHeader(nil, 'N', smallWidth, s.sp)
	return appendComponents(buf, idx, dig), nil
}

// UnmarshalBinary decodes into s, replacing its contents. It accepts a
// negative value's top collapsed or expanded, as partials written before
// the collapse carry it; the next Propagate normalizes either. It
// implements encoding.BinaryUnmarshaler.
func (s *Small) UnmarshalBinary(data []byte) error {
	w, sp, rest, err := parseHeader(data, 'N')
	if err != nil {
		return err
	}
	if w != smallWidth {
		return fmt.Errorf("%w: small superaccumulator width %d, want %d", ErrCodecInvalid, w, smallWidth)
	}
	idx, dig, err := parseComponents(rest, w)
	if err != nil {
		return err
	}
	ns := NewSmall()
	for k, ix := range idx {
		i := int(ix) - ns.minIdx
		if i < 0 || i >= len(ns.dig) {
			return fmt.Errorf("%w: component index %d outside small range", ErrCodecInvalid, ix)
		}
		ns.dig[i] = dig[k]
	}
	ns.sp = sp
	ns.nAdd = 1
	*s = *ns
	return nil
}
