//go:build !amd64

package vector

import "unsafe"

// Non-amd64 builds have no SIMD kernels: hasAVX2 is constant false, so
// simdOn can never be set and the stubs below are unreachable. They exist
// only so vector.go compiles unconditionally.

const (
	hasAVX2   = false
	hasAVX512 = false
)

func dotAVX2(a, b []float32) float32 {
	panic("vector: AVX2 kernel called on non-amd64 build")
}

func dotGatherAVX2(q, rows *float32, dim, stride int, idxs *int32, n, ahead int, out *float32) {
	panic("vector: AVX2 kernel called on non-amd64 build")
}

func dotMaskAVX512(q *float32, dim int, rows *unsafe.Pointer, skip, n, ahead int, out *float32) {
	panic("vector: AVX-512 kernel called on non-amd64 build")
}

func dotMaskAVX2(q *float32, dim int, rows *unsafe.Pointer, skip, n, ahead int, out *float32, table *int32) {
	panic("vector: AVX2 kernel called on non-amd64 build")
}

func expandMaskAVX512(dst *float32, row *uint32, dim, skip int, add bool) {
	panic("vector: AVX-512 kernel called on non-amd64 build")
}

func expandMaskAVX2(dst *float32, row *uint32, dim, skip int, add bool, table *int32) {
	panic("vector: AVX2 kernel called on non-amd64 build")
}

func maskAtLeast32AVX2(mask *uint32, words int, vals *float32, n int, blockT *float32, dim int, thr float32) (out uint32, ok bool) {
	panic("vector: AVX2 kernel called on non-amd64 build")
}

func maskAtLeast32AVX512(mask *uint32, words int, vals *float32, n int, blockT *float32, dim int, thr float32) (out uint32, ok bool) {
	panic("vector: AVX-512 kernel called on non-amd64 build")
}

// PrefetchInt32s is a cache hint on amd64 (kernels_amd64.go) and nothing here.
func PrefetchInt32s(s []int32) {}
