//go:build !amd64

package vector

// Non-amd64 builds have no SIMD kernels: hasAVX2 is constant false, so
// simdOn can never be set and the stubs below are unreachable. They exist
// only so vector.go compiles unconditionally.

const hasAVX2 = false

func dotAVX2(a, b []float32) float32 {
	panic("vector: AVX2 kernel called on non-amd64 build")
}

func dotTileAVX2(a0, a1, b *float32, strideB, groups, dim int, out0, out1 *float32) {
	panic("vector: AVX2 kernel called on non-amd64 build")
}

func dotGatherAVX2(q, rows *float32, dim, stride int, idxs *int32, n, ahead int, out *float32) {
	panic("vector: AVX2 kernel called on non-amd64 build")
}

func sparseAtLeast32AVX2(idx *int32, val *float32, n int, blockT *float32, dim int, thr float32) (mask uint32, ok bool) {
	panic("vector: AVX2 kernel called on non-amd64 build")
}

// PrefetchInt32s is a cache hint on amd64 (kernels_amd64.go) and nothing here.
func PrefetchInt32s(s []int32) {}
