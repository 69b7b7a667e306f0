package vector

import (
	"math"
	"unsafe"
)

// The portable kernels are Go twins of the assembly in kernels_amd64.s: each
// sums in its kernel's order, with its roundings, so both kernel paths
// return the same bits. Go has no vector instructions, so a twin emulates
// every lane of every FMA step one at a time; it skips the steps a zero
// coordinate contributes where that provably changes no bit (layout).

// A layout lists the coordinates of v a twin visits, ascending: all of them,
// or those where v is not ±0 (a sparse layout). Skipping a zero coordinate
// skips a ±0 product, which changes no lane (a running sum of the kernel's)
// while the other vector's coordinate is finite and the lane is not −0:
// x + (±0) is x for every other x. So the twins' contract is finite inputs:
// an Inf or NaN where the skipping vector is zero makes the assembly's result
// NaN, and a twin that skips it does not see it. A lane starts at +0, an
// exact cancellation gives +0, and +0 + (±0) is +0, so a lane turns −0 only
// by rounding a tiny negative sum, which fma32 does and fmaSteps reports;
// row then sums again over every coordinate.
type layout struct {
	v       []float32
	idx     []int32 // the coordinates visited, ascending
	n32, n8 int     // idx[:n32] feed 32 lanes, idx[n32:n8] eight (see sum)
	tile    bool    // one pair of dotTileAVX2, not dotAVX2
	sparse  bool    // zero coordinates are skipped
}

// coords is 0, 1, 2, …: a dense layout's coordinates up to its length.
var coords = func() (c [4096]int32) {
	for i := range c {
		c[i] = int32(i)
	}
	return c
}()

// A layoutBuf holds a sparse layout of up to 256 coordinates on its
// caller's stack.
type layoutBuf [256]int32

// newLayout lays v out for dotAVX2 or, with tile set, for one pair of
// dotTileAVX2: every coordinate or, with lb set, v's nonzeros, held in lb
// or, if v is longer, in a new slice.
func newLayout(v []float32, tile bool, lb *layoutBuf) layout {
	n32 := len(v) &^ 31
	if tile {
		n32 = 0
	}
	s := layout{v: v, n32: n32, n8: len(v) &^ 7, tile: tile, sparse: lb != nil}
	switch {
	case lb == nil && len(v) <= len(coords):
		s.idx = coords[:len(v)]
		return s
	case lb != nil && len(v) <= len(lb):
		s.idx = lb[:]
	default:
		s.idx = make([]int32, len(v))
	}
	s.n32 = s.keep(0, 0, n32)
	s.n8 = s.keep(s.n32, n32, s.n8)
	s.idx = s.idx[:s.keep(s.n8, len(v)&^7, len(v))]
	return s
}

// keep writes the coordinates in [lo, hi) the layout visits to s.idx from
// position n on, and returns the new count. It reads v's bits, where x<<1 is
// 0 just for ±0, so the loop has no branch on the data.
func (s *layout) keep(n, lo, hi int) int {
	v := unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(s.v))), hi)
	var all uint32
	if !s.sparse {
		all = 1
	}
	idx := s.idx[:hi]
	for i := lo; i < hi; i++ {
		idx[n] = int32(i)
		if v[i]<<1|all != 0 {
			n++
		}
	}
	return n
}

// dotScalar is the twin of dotAVX2.
func dotScalar(a, b []float32) float32 {
	return newLayout(a, false, nil).row(b)
}

// row is the twin of s's kernel on s.v and a finite b.
func (s layout) row(b []float32) float32 {
	if d, ok := s.sum(b); ok {
		return d
	}
	return newLayout(s.v, s.tile, nil).row(b)
}

// sum is dotAVX2's order: coordinates below len(v)&^31 feed 32 lanes,
// coordinate i lane i mod 32 (the assembly's four 8-lane accumulators); the
// lanes fold to eight as (Y0+Y1)+(Y2+Y3); those eight take the coordinates
// below len(v)&^7; VEXTRACTF128 and two VHADDPS reduce them as
// ((y0+y4)+(y1+y5))+((y2+y6)+(y3+y7)); the rest is an FMA chain on that sum.
// A tile pair has no 32 lanes (the eight start at +0) and reduces by the add
// tree ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)) its VHADDPS and VEXTRACTF128
// steps build. It reports false where fmaSteps does.
func (s *layout) sum(b []float32) (float32, bool) {
	b = b[:len(s.v)]
	var acc [32]float64
	ok := fmaSteps(acc[:], s.idx[:s.n32], s.v, b, s.sparse)
	var y [8]float64
	for l := range y {
		y[l] = float64((float32(acc[l]) + float32(acc[8+l])) + (float32(acc[16+l]) + float32(acc[24+l])))
	}
	ok = ok && fmaSteps(y[:], s.idx[s.n32:s.n8], s.v, b, s.sparse)
	y0, y1, y2, y3, y4, y5, y6, y7 := float32(y[0]), float32(y[1]), float32(y[2]), float32(y[3]), float32(y[4]), float32(y[5]), float32(y[6]), float32(y[7])
	r := [1]float64{float64(((y0 + y4) + (y1 + y5)) + ((y2 + y6) + (y3 + y7)))}
	if s.tile {
		r[0] = float64(((y0 + y1) + (y2 + y3)) + ((y4 + y5) + (y6 + y7)))
	}
	ok = ok && fmaSteps(r[:], s.idx[s.n8:], s.v, b, s.sparse)
	return float32(r[0]), ok
}

// fmaSteps runs len(acc) lanes (a power of two) over the coordinates idx,
// which start at a multiple of len(acc): coordinate i makes lane
// l = i mod len(acc) acc[l] = fma32(a[i], b[i], acc[l]). Lanes hold float32
// values, widened. fastSteps takes the steps it can, fma32 the others; with
// sparse set it reports false once a lane turns −0 (see layout).
func fmaSteps(acc []float64, idx []int32, a, b []float32, sparse bool) bool {
	for {
		k := fastSteps(acc, idx, a, b)
		if k == len(idx) {
			return true
		}
		i := idx[k]
		l := i & int32(len(acc)-1)
		r := fma32(a[i], b[i], float32(acc[l]))
		if sparse && r == 0 && math.Signbit(float64(r)) {
			return false
		}
		acc[l] = float64(r)
		idx = idx[k+1:]
	}
}

// The bits of a float64 y that fastSteps reads: below bit 29 is what float32
// precision drops, and e := uint32(y>>31) holds the exponent above 21 bits of
// significand, so e < e126 is |y| < 2^-126 and e >= e127 is |y| >= 2^127.
const (
	dropped = 1<<29 - 1
	halfUlp = 1 << 28
	e126    = 897 << 21
	e127    = 1150 << 21
)

// fastSteps takes fmaSteps' steps in turn while it can round them without
// fma32, and returns how many it took. It calls nothing, so its loop keeps
// everything in registers. A lane is a dependency chain through acc;
// consecutive coordinates belong to different lanes, so the CPU overlaps
// the chains.
//
// Why its rounding is fma32's: in float64 the product a·b is exact (24+24
// bits), so y = float64(a)*float64(b) + s is the exact sum x rounded once,
// to 53 bits (on arm64 the compiler may fuse the two operations: the value
// is the same). Every float32 breakpoint — a midpoint between adjacent
// float32 values, subnormal ones included, or the overflow threshold
// 2^128 − 2^103 — is a float64, and rounding to nearest is monotone and
// fixes every float64, so unless y is itself a breakpoint no breakpoint lies
// between x and y, and x and y round to the same float32. Where
// 2^-126 <= |y| < 2^127, float32 is exactly the float64s whose low 29
// significand bits are zero, and y is a breakpoint just when those bits are
// 2^28; otherwise adding 2^28 and clearing them rounds y to nearest (a carry
// into the exponent is right). y = ±0 only when x is ±0 (x is a multiple of
// 2^-298), which is its own rounding. Every other y — a midpoint, a nonzero
// |y| < 2^-126 where float32 goes subnormal, |y| >= 2^127, Inf, NaN — stops
// the run.
func fastSteps(acc []float64, idx []int32, a, b []float32) int {
	lane := len(acc) - 1
	for k, i32 := range idx {
		i := int(i32)
		l := i & lane
		u := math.Float64bits(float64(a[i])*float64(b[i]) + acc[l])
		t := u + halfUlp
		if e := uint32(u >> 31); t&dropped == 0 || e-1 < e126-1 || e >= e127 {
			return k
		}
		acc[l] = math.Float64frombits(t &^ dropped)
	}
	return len(idx)
}

// fma32 returns a·b + s rounded once to float32, as VFMADD231SS does, for
// every input (a NaN result may carry another payload). It rounds the exact
// sum to odd in float64 — to the float64 next to it whose last bit is 1,
// unless the sum is a float64 — and then to nearest float32, which is the
// sum rounded once (Boldo and Melquiond, "Emulation of FMA and correctly
// rounded sums: proved algorithms using rounding to odd", IEEE TC 2008): the
// float32 breakpoints (see fastSteps) are float64s with at most 25
// significant bits, so their last bit is 0 and none lies between the exact
// sum and its odd neighbour.
func fma32(a, b, s float32) float32 {
	p, c := float64(a)*float64(b), float64(s) // p is exact
	x := p + c
	// TwoSum: the rounding error of p + c, exactly (no sum here overflows).
	bv := x - p
	err := (p - (x - bv)) + (c - bv)
	if u := math.Float64bits(x); u&1 == 0 && (err > 0 || err < 0) {
		// x is even and not the sum: step one ulp towards the sum.
		if (err > 0) == (x > 0) {
			u++
		} else {
			u--
		}
		x = math.Float64frombits(u)
	}
	return float32(x)
}
