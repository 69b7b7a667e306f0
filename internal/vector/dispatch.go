package vector

import (
	"fmt"
	"os"
)

// simdOn selects the kernel path for Dot and everything layered on it: Norm,
// the cosine distances, and the batch, gather and tile API (SquaredDist and
// EuclideanDist are portable Go on both paths). It defaults to the AVX2+FMA
// assembly whenever the CPU supports it and may be forced to the portable
// scalar path with SetKernels or the VECTOR_KERNELS environment variable.
//
// simdOn is a plain bool, not an atomic: SetKernels is a startup/test knob,
// documented to be called before concurrent kernel use begins. Flipping it
// mid-flight from another goroutine is a data race.
var simdOn = hasAVX2

func init() {
	if v := os.Getenv("VECTOR_KERNELS"); v != "" {
		if err := SetKernels(v); err != nil {
			panic(err)
		}
	}
}

// SetKernels selects the kernel implementation:
//
//	"auto"   — AVX2+FMA assembly when the CPU supports it, scalar otherwise.
//	"scalar" — force the portable Go path (deterministic across machines).
//	"avx2"   — require the assembly path; errors on CPUs without AVX2+FMA.
//
// Call it at startup (the server/loadgen -kernels flag and the
// VECTOR_KERNELS env both route here) or between sequential test phases —
// not while other goroutines are computing distances.
func SetKernels(mode string) error {
	switch mode {
	case "auto":
		simdOn = hasAVX2
	case "scalar":
		simdOn = false
	case "avx2":
		if !hasAVX2 {
			return fmt.Errorf("vector: kernels %q requested but CPU lacks AVX2+FMA support", mode)
		}
		simdOn = true
	default:
		return fmt.Errorf("vector: unknown kernels mode %q (want auto, scalar, or avx2)", mode)
	}
	return nil
}

// Kernels reports the active kernel path: "avx2" or "scalar".
func Kernels() string {
	if simdOn {
		return "avx2"
	}
	return "scalar"
}
