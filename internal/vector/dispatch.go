package vector

import (
	"fmt"
	"os"
)

// simdOn selects the kernel path for Dot and everything layered on it: Norm,
// the cosine distances, and the batch and gather API (SquaredDist and
// EuclideanDist are portable Go on both paths). It defaults to the AVX2+FMA
// assembly whenever the CPU supports it and may be forced to the portable
// Go twins with SetKernels or the VECTOR_KERNELS environment variable. The
// twins sum in the assembly's order, so the choice changes speed, not bits
// (MaskAtLeast32, a filter with a bound, is the exception, and the flat
// DotBatch and DotGather twins give the same bits only on finite rows: see
// batch.go). avx512 further
// moves the bitmask-row gather (SparseRows.DotGather) and expansion from
// their AVX2 kernels to AVX-512 ones, which return the same bits, and
// MaskAtLeast32 to its AVX-512 tier, whose sums are within the same bound.
//
// Both are plain bools, not atomics: SetKernels is a startup/test knob,
// documented to be called before concurrent kernel use begins. Flipping them
// mid-flight from another goroutine is a data race.
var simdOn, avx512 = hasAVX2, hasAVX512

func init() {
	if v := os.Getenv("VECTOR_KERNELS"); v != "" {
		if err := SetKernels(v); err != nil {
			panic(err)
		}
	}
}

// SetKernels selects the kernel implementation:
//
//	"auto"   — the widest assembly the CPU supports: AVX-512 for the
//	           bitmask-row kernels and AVX2+FMA for the rest, or AVX2+FMA
//	           throughout, or the Go twins where it has neither.
//	"scalar" — force the portable Go twins.
//	"avx2"   — the AVX2+FMA assembly throughout; errors on CPUs without it.
//	"avx512" — AVX-512 for the bitmask-row kernels and AVX2+FMA for the
//	           rest; errors on CPUs or OSes without AVX-512F.
//
// Each mode Kernels reports selects that path again, so SetKernels(Kernels())
// changes nothing: how a test hands the path back. Every path returns the
// same bits (the flat twins on finite rows). Call it at startup (the
// VECTOR_KERNELS env routes here) or between sequential test phases — not
// while other goroutines are computing distances.
func SetKernels(mode string) error {
	switch mode {
	case "auto":
		simdOn, avx512 = hasAVX2, hasAVX512
	case "scalar":
		simdOn, avx512 = false, false
	case "avx2":
		if !hasAVX2 {
			return fmt.Errorf("vector: kernels %q requested but CPU lacks AVX2+FMA support", mode)
		}
		simdOn, avx512 = true, false
	case "avx512":
		if !hasAVX512 {
			return fmt.Errorf("vector: kernels %q requested but CPU or OS lacks AVX-512F support", mode)
		}
		simdOn, avx512 = true, true
	default:
		return fmt.Errorf("vector: unknown kernels mode %q (want auto, scalar, avx2 or avx512)", mode)
	}
	return nil
}

// Kernels reports the active kernel path: "avx512", "avx2" or "scalar".
func Kernels() string {
	switch {
	case avx512:
		return "avx512"
	case simdOn:
		return "avx2"
	}
	return "scalar"
}

// ForceKernels selects mode for the rest of test t, as SetKernels does, and
// hands back the path in effect now when t ends; it skips t where this CPU
// lacks mode. Tests that force a path run one at a time.
func ForceKernels(t interface {
	Helper()
	Skip(...any)
	Cleanup(func())
}, mode string) {
	t.Helper()
	prev := Kernels()
	if err := SetKernels(mode); err != nil {
		t.Skip(err)
	}
	t.Cleanup(func() { SetKernels(prev) })
}

// KernelsRestored runs a package's tests (testing.M's Run) and fails the run
// when they end on another kernel path than they began on.
func KernelsRestored(run func() int) int {
	start, code := Kernels(), run()
	if code == 0 && Kernels() != start {
		fmt.Fprintf(os.Stderr, "FAIL: the tests began on the %s kernel path and ended on %s\n", start, Kernels())
		return 1
	}
	return code
}
