//go:build amd64

package vector

// Assembly kernels in kernels_amd64.s. Each handles arbitrary lengths
// (32-wide FMA main loop, 8-wide loop, scalar tail) and requires
// len(a) == len(b) — the exported wrappers in vector.go check that before
// dispatching. They must only be called when hasAVX2 is true.

//go:noescape
func dotAVX2(a, b []float32) float32

// dotTileAVX2 is the 2×4 register-tile kernel behind DotTile: rows a0 and a1
// against groups×4 B rows (row r at b + r*strideB floats), results to
// out0[0:4*groups] and out1[0:4*groups]. See the comment above it in
// kernels_amd64.s.
//
//go:noescape
func dotTileAVX2(a0, a1, b *float32, strideB, groups, dim int, out0, out1 *float32)

// dotGatherAVX2 is the one-call-per-block kernel behind DotGather: q against
// the n rows idxs[0..n) of the arena (row i at rows + i*stride floats),
// out[j] bit-equal to dotAVX2 on row idxs[j], with row idxs[j+ahead]
// prefetched while row j is summed. It takes raw pointers and checks
// nothing: every index must already be known to name a whole row inside the
// arena. See the comment above it in kernels_amd64.s.
//
//go:noescape
func dotGatherAVX2(q, rows *float32, dim, stride int, idxs *int32, n, ahead int, out *float32)

// sparseAtLeast32AVX2 is the kernel behind SparseAtLeast32: one sparse row
// (n coordinates at idx, values at val) against a dim×32 dimension-major
// block, returning the 32-lane mask of sums >= thr. It reads an index only
// after checking it is below dim, and returns ok = false at the first one
// that is not. See the comment above it in kernels_amd64.s.
//
//go:noescape
func sparseAtLeast32AVX2(idx *int32, val *float32, n int, blockT *float32, dim int, thr float32) (mask uint32, ok bool)

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
// kernels: AVX2 (CPUID.7.0:EBX[5]) and FMA (CPUID.1:ECX[12]) present, and
// the OS saving YMM state across context switches (OSXSAVE set and
// XCR0[2:1] == 11, the check Intel's manuals mandate before executing any
// VEX-256 instruction).
var hasAVX2 = detectAVX2()

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
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}
