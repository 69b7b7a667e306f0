package vector

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// The bitmask-row threshold kernel, MaskAtLeast32: one row given as a
// SparseRows row is stored — its mask words and its packed values — against
// a block of 32 rows stored dimension-major, one comparison per row of the
// block. The exact join (package ann) runs it as a conservative filter ahead
// of SparseRows.CosineUnitGather: the encoder's hashed embeddings have a few
// dozen nonzeros out of hundreds of coordinates, so a row's sums over its
// own nonzeros cost a fraction of its dense distances, and only the lanes
// that may be within the threshold are scored exactly, through the gather.
// The assembly tiers walk the mask a 64-bit
// word at a time, taking the lowest set bit (TZCNT) and clearing it (BLSR),
// so the row is read where it is stored and never laid out again; the
// portable twin walks it once a call into the row's coordinates.
//
// Its sums are not bit-equal to any other kernel's, nor across the three
// tiers: the AVX-512 kernel keeps four accumulator sets, the AVX2 kernel two
// (a word's nonzeros go to the sets in turn, from the first set at each
// word), and both add the sets at the end; the portable twin sums each lane's
// nonzeros in order. All are within the usual inner-product bound of the
// true sum, γₙ·Σ|aᵢbᵢ| with n the number of nonzeros, which is what a caller
// filtering with it must allow for.

// SparseBlock is the number of rows in a MaskAtLeast32 block: one bit of the
// returned mask each.
const SparseBlock = 32

// MaskAtLeast32 returns the mask whose bit l is set when
//
//	Σ_c v[c] · blockT[c*32 + l]  >=  thr
//
// for the 32 rows l of a dimension-major block — row l's coordinate c at
// blockT[c*32+l], so len(blockT) must be 32·dim — and the row v whose
// coordinates are given as SparseRows.Row gives them: bit c of mask (bit c%32
// of mask[c/32], 2·ceil(dim/64) words) set for each stored coordinate, whose
// value is the next of vals, in coordinate order; a coordinate whose bit is
// clear counts as zero. A NaN sum compares false. It panics when blockT is
// not whole columns, when mask has another length, at a mask bit at or past
// dim, or when vals holds another number of values than mask has bits.
func MaskAtLeast32(mask []uint32, vals []float32, blockT []float32, thr float32) uint32 {
	dim := len(blockT) / SparseBlock
	if len(blockT)%SparseBlock != 0 || len(mask) != 2*((dim+63)/64) {
		panic(fmt.Sprintf("vector: a %d-word mask against a block of %d floats", len(mask), len(blockT)))
	}
	var out uint32
	var ok bool
	switch {
	case !simdOn:
		out, ok = maskAtLeast32Twin(mask, vals, blockT, thr)
	case avx512:
		out, ok = maskAtLeast32AVX512(unsafe.SliceData(mask), len(mask)/2, unsafe.SliceData(vals), len(vals), unsafe.SliceData(blockT), dim, thr)
	default:
		out, ok = maskAtLeast32AVX2(unsafe.SliceData(mask), len(mask)/2, unsafe.SliceData(vals), len(vals), unsafe.SliceData(blockT), dim, thr)
	}
	if !ok {
		panic(fmt.Sprintf("vector: a row of %d values whose mask has a bit at or past dimension %d or another number of bits", len(vals), dim))
	}
	return out
}

// maskAtLeast32Twin is the portable twin: it walks the mask once into the
// row's coordinates, then sums eight lanes at a time, each lane's nonzeros
// in order. It reports false, having summed nothing, for a row the assembly
// kernels refuse.
func maskAtLeast32Twin(mask []uint32, vals []float32, blockT []float32, thr float32) (uint32, bool) {
	dim := len(blockT) / SparseBlock
	var cb [256]int32
	cols := cb[:0]
	for j, m := range mask {
		if m != 0 && j<<5+bits.Len32(m)-1 >= dim {
			return 0, false
		}
		for ; m != 0; m &= m - 1 {
			cols = append(cols, int32(j<<5|bits.TrailingZeros32(m))*SparseBlock)
		}
	}
	if len(cols) != len(vals) {
		return 0, false
	}
	var out uint32
	for g := 0; g < SparseBlock; g += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		for k, at := range cols {
			c := blockT[int(at)+g:][:8]
			v := vals[k]
			s0 += float32(v * c[0])
			s1 += float32(v * c[1])
			s2 += float32(v * c[2])
			s3 += float32(v * c[3])
			s4 += float32(v * c[4])
			s5 += float32(v * c[5])
			s6 += float32(v * c[6])
			s7 += float32(v * c[7])
		}
		for l, s := range [8]float32{s0, s1, s2, s3, s4, s5, s6, s7} {
			if s >= thr {
				out |= 1 << (g + l)
			}
		}
	}
	return out, true
}
