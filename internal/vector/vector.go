// Package vector provides float32 vector math primitives used throughout the
// MultiEM pipeline: dot products, normalization, small fixed-size top-K
// accumulators, and the two distances the paper fixes, one per phase —
// cosine over unit vectors for merging (CosineUnitDist, and its gather form
// over flat and chunked arenas and tile form over flat ones, with
// SparseAtLeast32 as the tile's filter) and euclidean for pruning
// (EuclideanDist). Rows live in two kinds of arena: Store, one contiguous
// block for arrays allocated at their final size, and Chunked, an
// arena.Arena of fixed 64-row chunks for arenas that grow and whose rows must
// never move.
//
// All distance functions treat vectors of unequal lengths as a programming
// error and panic; embeddings in this repository always share a single
// dimensionality fixed by the encoder.
package vector

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. It dispatches to the AVX2+FMA
// assembly kernel when the CPU supports it and SetKernels has not forced the
// portable path; the portable kernel, dotScalar, sums in the assembly's
// order with the same single roundings, so both paths return the same bits.
func Dot(a, b []float32) float32 {
	assertSameLen(a, b)
	if simdOn {
		return dotAVX2(a, b)
	}
	return dotScalar(a, b)
}

// Norm returns the L2 norm of a, computed as sqrt(Dot(a, a)) so it rides the
// same kernel as every other inner product.
func Norm(a []float32) float32 {
	return float32(math.Sqrt(float64(Dot(a, a))))
}

// Normalize scales a in place to unit L2 norm and returns it. The zero
// vector is returned unchanged.
func Normalize(a []float32) []float32 {
	n := Norm(a)
	if n == 0 {
		return a
	}
	inv := 1 / n
	for i := range a {
		a[i] *= inv
	}
	return a
}

// EuclideanDist returns the L2 distance between a and b: the pruning phase's
// distance (paper §III-D), taken pair by pair inside one small tuple.
func EuclideanDist(a, b []float32) float32 {
	return float32(math.Sqrt(float64(SquaredDist(a, b))))
}

// SquaredDist returns the squared L2 distance between a and b, the kernel
// under EuclideanDist: portable Go on both kernel paths (pruning, its one
// caller, is under 2 % of a pipeline run), unrolled 8-way. Each square is
// rounded to float32 before its add, so no compiler fuses the two (arm64's
// would, and change the bits).
func SquaredDist(a, b []float32) float32 {
	assertSameLen(a, b)
	b = b[:len(a)]
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	n := len(a) &^ 7
	for i := 0; i < n; i += 8 {
		aa, bb := a[i:i+8:i+8], b[i:i+8:i+8]
		d0 := aa[0] - bb[0]
		d1 := aa[1] - bb[1]
		d2 := aa[2] - bb[2]
		d3 := aa[3] - bb[3]
		d4 := aa[4] - bb[4]
		d5 := aa[5] - bb[5]
		d6 := aa[6] - bb[6]
		d7 := aa[7] - bb[7]
		s0 += float32(d0 * d0)
		s1 += float32(d1 * d1)
		s2 += float32(d2 * d2)
		s3 += float32(d3 * d3)
		s4 += float32(d4 * d4)
		s5 += float32(d5 * d5)
		s6 += float32(d6 * d6)
		s7 += float32(d7 * d7)
	}
	s := ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
	for i := n; i < len(a); i++ {
		d := a[i] - b[i]
		s += float32(d * d)
	}
	return s
}

// Add accumulates src into dst element-wise. Centroid updates spend most of
// their time here; eight elements a step keep the loop's speed from hanging
// on where the linker happens to place it. Element-wise, so the result has
// the bits of the one-float loop.
func Add(dst, src []float32) {
	assertSameLen(dst, src)
	src = src[:len(dst)]
	i := 0
	for n := len(dst) &^ 7; i < n; i += 8 {
		d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
		d[4] += s[4]
		d[5] += s[5]
		d[6] += s[6]
		d[7] += s[7]
	}
	for ; i < len(dst); i++ {
		dst[i] += src[i]
	}
}

// AddScaled accumulates c*src into dst element-wise, rounding the product
// before the add (no fused multiply-add). Only the dense encoder's reference
// test uses it, to pool token vectors the plain way.
func AddScaled(dst, src []float32, c float32) {
	assertSameLen(dst, src)
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += float32(c * src[i])
	}
}

// Scale multiplies every element of a by c in place.
func Scale(a []float32, c float32) {
	for i := range a {
		a[i] *= c
	}
}

func assertSameLen(a, b []float32) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vector: dimension mismatch %d vs %d", len(a), len(b)))
	}
}

// CosineUnitDist is cosine distance (1 - cosine similarity) over unit-norm or
// zero vectors, computed as 1 - Dot(a, b): the merging phase's distance
// (paper §III-C). The encoder returns unit-norm or zero embeddings and
// merging normalizes centroids, so every vector the pipeline and the matcher
// compare qualifies; a zero vector is at distance 1 from all.
func CosineUnitDist(a, b []float32) float32 { return 1 - Dot(a, b) }
