package vector

import "fmt"

// The sparse-row threshold kernel, SparseAtLeast32: one row given by its
// nonzero coordinates against a block of 32 rows stored dimension-major, one
// comparison per row of the block. The exact join (package ann) runs it as a
// conservative filter ahead of DotTile: the encoder's hashed embeddings have
// a few dozen nonzeros out of hundreds of coordinates, so a row's sums over
// its own nonzeros cost a fraction of the dense tile, and only blocks that
// may hold a pair within the threshold are scored exactly.
//
// Its sums are not bit-equal to any other kernel's, nor across the two paths:
// the AVX2 kernel keeps two accumulator sets (even and odd nonzeros) and adds
// them at the end, the portable one sums each lane's nonzeros in order. Both
// are within the usual inner-product bound of the true sum, γₙ·Σ|aᵢbᵢ| with
// n the number of nonzeros, which is what a caller filtering with it must
// allow for.

// SparseBlock is the number of rows in a SparseAtLeast32 block: one bit of
// the returned mask each.
const SparseBlock = 32

// SparseAtLeast32 returns the mask whose bit l is set when
//
//	Σ_k val[k] · blockT[idx[k]*32 + l]  >=  thr
//
// for the 32 rows l of a dimension-major block — row l's coordinate d at
// blockT[d*32+l], so len(blockT) must be 32·dim — and the row whose
// coordinate idx[k] is val[k] for every k (the indexes need not be sorted,
// and any coordinate not listed counts as zero). A NaN sum compares false.
// It panics when len(idx) != len(val), when blockT is not whole columns, or
// at an index outside [0, dim).
func SparseAtLeast32(idx []int32, val []float32, blockT []float32, thr float32) uint32 {
	if len(idx) != len(val) || len(blockT)%SparseBlock != 0 {
		panic(fmt.Sprintf("vector: sparse row of %d indexes and %d values against a block of %d floats", len(idx), len(val), len(blockT)))
	}
	if !simdOn || len(idx) == 0 {
		return sparseAtLeast32Scalar(idx, val, blockT, thr)
	}
	var bt *float32
	if len(blockT) > 0 {
		bt = &blockT[0]
	}
	mask, ok := sparseAtLeast32AVX2(&idx[0], &val[0], len(idx), bt, len(blockT)/SparseBlock, thr)
	if !ok {
		panic(fmt.Sprintf("vector: sparse row index out of range [0, %d)", len(blockT)/SparseBlock))
	}
	return mask
}

// sparseAtLeast32Scalar is the portable twin: eight lanes at a time, each
// lane's nonzeros summed in order.
func sparseAtLeast32Scalar(idx []int32, val []float32, blockT []float32, thr float32) uint32 {
	val = val[:len(idx)]
	var mask uint32
	for g := 0; g < SparseBlock; g += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		for k, d := range idx {
			c := blockT[int(d)*SparseBlock+g:][:8]
			v := val[k]
			s0 += v * c[0]
			s1 += v * c[1]
			s2 += v * c[2]
			s3 += v * c[3]
			s4 += v * c[4]
			s5 += v * c[5]
			s6 += v * c[6]
			s7 += v * c[7]
		}
		for l, s := range [8]float32{s0, s1, s2, s3, s4, s5, s6, s7} {
			if s >= thr {
				mask |= 1 << (g + l)
			}
		}
	}
	return mask
}
