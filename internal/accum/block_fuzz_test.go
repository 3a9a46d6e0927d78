package accum

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// FuzzBlockVsScalar is the differential obligation of the bulk lane-cache
// paths: for arbitrary float blocks — specials, zeros, denormals, and
// any block-boundary split included — AddSlice/SubSlice must leave Dense,
// Small, and Window in a state bit-identical to the scalar Add/Sub oracle
// loop. States are compared canonically: regularized digit strings plus
// the out-of-band special multiplicities, and the rounded result bits.
//
// Input layout: data[0] picks the AddSlice split point (so the fuzzer
// exercises blocks cut at every boundary), data[1] picks how much of the
// tail is deleted again via SubSlice, data[2] picks a lane-cache add
// budget (so flushes fire mid-slice, between the alternating AddSlice /
// SubSlice calls, and around specials), and the rest reinterprets as
// little-endian float64s — and, independently, as little-endian float32s
// for the AddSlice32 narrow-lane differential.
func FuzzBlockVsScalar(f *testing.F) {
	seed := func(split, sub, budget byte, xs ...float64) {
		data := []byte{split, sub, budget}
		for _, x := range xs {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(x))
		}
		f.Add(data)
	}
	seed(0, 0, 0)
	seed(1, 0, 0, 1, 2, 3)
	seed(128, 64, 0, 1e100, 1, -1e100, 0.5)
	seed(3, 200, 0, math.Inf(1), math.NaN(), math.Inf(-1), 1.25, math.Inf(1))
	seed(77, 10, 0, 0, math.Copysign(0, -1), 1e-310, math.SmallestNonzeroFloat64)
	seed(200, 100, 0, math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64)
	// A multi-block narrow-spread run crossing an AddSlice split.
	narrow := make([]float64, 300)
	for i := range narrow {
		narrow[i] = 1 + float64(i)/512
	}
	seed(150, 30, 0, narrow...)
	// Lane-flush boundary seeds: tiny budgets force flushes mid-slice,
	// with direction changes and specials straddling them.
	seed(150, 30, 1, narrow...)
	seed(100, 80, 2, narrow[:40]...)
	seed(5, 3, 3, 1e300, -1e-300, math.Inf(-1), 1e300, math.NaN(), -1e300, 2.5)
	seed(9, 4, 4, math.MaxFloat64, math.Inf(1), -math.MaxFloat64, math.Inf(1), 1e-310)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		split, sub := int(data[0]), int(data[1])
		// data[2] == 0 keeps the production budget; other values force
		// budget-exhaustion flushes at fuzz scale.
		if sel := data[2] % 8; sel != 0 {
			old := laneMaxAdds
			laneMaxAdds = []int64{0, 1, 2, 3, 5, 17, 63, 256}[sel]
			defer func() { laneMaxAdds = old }()
		}
		xs := fuzzBytesToFloats(data[3:], 1024)
		p := 0
		if len(xs) > 0 {
			p = split % (len(xs) + 1)
		}
		nsub := 0
		if n := len(xs) - p; n > 0 {
			nsub = sub % (n + 1)
		}
		del := xs[len(xs)-nsub:]

		bd, od := NewFullWindow(0), NewFullWindow(0)
		bs, os := NewSmall(), NewSmall()
		bw, ow := NewWindow(0), NewWindow(0)

		// Block paths: two bulk adds around the split, one bulk delete.
		for _, a := range []interface {
			AddSlice([]float64)
			SubSlice([]float64)
		}{bd, bs, bw} {
			a.AddSlice(xs[:p])
			a.AddSlice(xs[p:])
			a.SubSlice(del)
		}
		// Scalar oracle loops.
		for _, x := range xs {
			od.Add(x)
			os.Add(x)
			ow.Add(x)
		}
		for _, x := range del {
			od.Sub(x)
			os.Sub(x)
			ow.Sub(x)
		}

		bd.Regularize()
		od.Regularize()
		if !slices.Equal(bd.win, od.win) || bd.sp != od.sp {
			t.Fatalf("dense block path diverges from scalar oracle\nblock:  %v\nscalar: %v", bd, od)
		}
		bs.Propagate()
		os.Propagate()
		if !slices.Equal(bs.dig, os.dig) || bs.sp != os.sp {
			t.Fatal("small block path diverges from scalar oracle")
		}
		bsp, osp := bw.ToSparse(), ow.ToSparse()
		if !slices.Equal(bsp.idx, osp.idx) || !slices.Equal(bsp.dig, osp.dig) || bsp.sp != osp.sp {
			t.Fatalf("window block path diverges from scalar oracle\nblock:  %v\nscalar: %v", bsp, osp)
		}
		for _, pair := range [][2]float64{{bd.Round(), od.Round()}, {bs.Round(), os.Round()}, {bw.Round(), ow.Round()}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("Round bits diverge: block %x, scalar %x", math.Float64bits(pair[0]), math.Float64bits(pair[1]))
			}
		}

		// float32 narrow-lane differential over the same raw bytes.
		xs32 := fuzzBytesToFloat32s(data[3:], 1024)
		p32 := 0
		if len(xs32) > 0 {
			p32 = split % (len(xs32) + 1)
		}
		b32, o32 := NewFullWindow(0), NewFullWindow(0)
		b32.AddSlice32(xs32[:p32])
		b32.AddSlice32(xs32[p32:])
		b32.SubSlice32(xs32[:p32])
		for _, x := range xs32 {
			o32.Add(float64(x))
		}
		for _, x := range xs32[:p32] {
			o32.Sub(float64(x))
		}
		b32.Regularize()
		o32.Regularize()
		if !slices.Equal(b32.win, o32.win) || b32.sp != o32.sp {
			t.Fatalf("f32 lane path diverges from scalar oracle\nlane:   %v\nscalar: %v", b32, o32)
		}
		if g, want := b32.Round32(), o32.Round32(); math.Float32bits(g) != math.Float32bits(want) {
			t.Fatalf("f32 Round32 bits diverge: lane %x, scalar %x", math.Float32bits(g), math.Float32bits(want))
		}
	})
}

// fuzzBytesToFloat32s reinterprets data as little-endian float32s,
// capped at limit elements.
func fuzzBytesToFloat32s(data []byte, limit int) []float32 {
	n := min(len(data)/4, limit)
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
	}
	return xs
}
