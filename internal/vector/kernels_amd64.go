//go:build amd64

package vector

import "unsafe"

// Assembly kernels in kernels_amd64.s. Each handles arbitrary lengths
// (32-wide FMA main loop, 8-wide loop, scalar tail) and requires
// len(a) == len(b) — the exported wrappers in vector.go check that before
// dispatching. They must only be called when hasAVX2 is true.

//go:noescape
func dotAVX2(a, b []float32) float32

// dotGatherAVX2 is the one-call-per-block kernel behind DotGather: q
// against the n rows idxs[0..n) of a flat arena (row i at i*stride floats
// into rows), out[j] bit-equal to dotAVX2 on row idxs[j], with row
// idxs[j+ahead] prefetched while row j is summed. It takes raw pointers and
// checks nothing: every index must already be known to name a whole row
// inside the arena. See the comment above it in kernels_amd64.s.
//
//go:noescape
func dotGatherAVX2(q, rows *float32, dim, stride int, idxs *int32, n, ahead int, out *float32)

// dotMaskAVX512 is the gather behind SparseRows.DotGather where the CPU has
// AVX-512: q against the n bitmask rows rows[0..n) (each its mask, skip
// bytes, then its packed values), out[j] bit-equal to dotAVX2 on row j
// expanded, with row j+ahead prefetched while row j is summed. It checks
// nothing. See the comment above it in kernels_amd64.s.
//
//go:noescape
func dotMaskAVX512(q *float32, dim int, rows *unsafe.Pointer, skip, n, ahead int, out *float32)

// dotMaskAVX2 is dotMaskAVX512 for CPUs with AVX2 alone: it expands each
// 8-lane group through the table maskExpand builds.
//
//go:noescape
func dotMaskAVX2(q *float32, dim int, rows *unsafe.Pointer, skip, n, ahead int, out *float32, table *int32)

// expandMaskAVX512 writes a bitmask row (its mask at row, its values skip
// bytes on) out dense to dst[0..dim), every value's bits kept, or with add
// set adds it to dst; expandMaskAVX2 does so with AVX2 alone, through
// maskExpand's table. They check nothing. See the comment above them in
// kernels_amd64.s.
//
//go:noescape
func expandMaskAVX512(dst *float32, row *uint32, dim, skip int, add bool)

//go:noescape
func expandMaskAVX2(dst *float32, row *uint32, dim, skip int, add bool, table *int32)

// maskAtLeast32AVX2 is the kernel behind MaskAtLeast32: one bitmask row
// (words 64-bit mask words at mask, its n values at vals) against a dim×32
// dimension-major block, returning the 32-lane mask of sums >= thr.
// maskAtLeast32AVX512 is the same on AVX-512, with twice the accumulator
// sets. Each checks a mask word before reading at any of its bits, and
// returns ok = false for a bit at or past dim, or for a mask whose bit count
// is not n. See the comment above them in kernels_amd64.s.
//
//go:noescape
func maskAtLeast32AVX2(mask *uint32, words int, vals *float32, n int, blockT *float32, dim int, thr float32) (out uint32, ok bool)

//go:noescape
func maskAtLeast32AVX512(mask *uint32, words int, vals *float32, n int, blockT *float32, dim int, thr float32) (out uint32, ok bool)

// PrefetchInt32s hints the first two cache lines of s (32 values) towards
// L1 and returns at once: a PREFETCHT0 pair, which reads nothing
// architecturally and cannot fault, so any s is fine, empty or short
// included. A graph walk calls it on the link block it will read next, just
// before a block's worth of distance arithmetic, so the block's dependent
// loads are in flight behind it. Not a kernel: it is issued on either kernel
// path, and is a no-op off amd64.
//
//go:noescape
func PrefetchInt32s(s []int32)

// cpuid and xgetbv are tiny assembly shims over the CPUID and XGETBV
// instructions, used once at init to probe AVX2+FMA support. xgetbv always
// reads XCR0.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the running CPU and OS support the AVX2+FMA
// kernels: AVX2 (CPUID.7.0:EBX[5]), FMA (CPUID.1:ECX[12]) and BMI1
// (CPUID.7.0:EBX[3], the mask walks' TZCNT and BLSR) present, and
// the OS saving YMM state across context switches (OSXSAVE set and
// XCR0[2:1] == 11, the check Intel's manuals mandate before executing any
// VEX-256 instruction).
var hasAVX2 = detectAVX2()

// hasAVX512 reports whether the bitmask-row kernels may run on AVX-512:
// hasAVX2, AVX-512F (CPUID.7.0:EBX[16]), and the OS saving the opmask and
// ZMM state across context switches (XCR0[7:5] == 111).
var hasAVX512 = hasAVX2 && detectAVX512()

func detectAVX512() bool {
	xlo, _ := xgetbv()
	if xlo&0xe0 != 0xe0 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx512fBit = 1 << 16
	return ebx7&avx512fBit != 0
}

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&(fmaBit|osxsaveBit|avxBit) != fmaBit|osxsaveBit|avxBit {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be set: the OS restores
	// XMM+YMM registers on context switch.
	xlo, _ := xgetbv()
	if xlo&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const (
		bmi1Bit = 1 << 3
		avx2Bit = 1 << 5
	)
	return ebx7&(bmi1Bit|avx2Bit) == bmi1Bit|avx2Bit
}
