package vector

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sparseBound is the error bound SparseAtLeast32's contract allows around a
// lane's true sum: γₙ·Σ|val[k]·blockT[idx[k]*32+l]|, n = len(idx), plus a
// few units of the smallest normal float32 for sums that underflow.
func sparseBound(idx []int32, val, blockT []float32, l int) float64 {
	n := float64(len(idx))
	u := math.Ldexp(1, -24)
	var abs float64
	for k, d := range idx {
		abs += math.Abs(float64(val[k]) * float64(blockT[int(d)*SparseBlock+l]))
	}
	return n*u/(1-n*u)*abs + n*math.Ldexp(1, -126)
}

// checkSparseLanes holds one SparseAtLeast32 mask to its contract: a lane
// whose float64 sum clears thr by more than the bound is set, one that falls
// short of it by more than the bound is clear.
func checkSparseLanes(t *testing.T, at string, mask uint32, idx []int32, val, blockT []float32, thr float32) {
	t.Helper()
	for l := 0; l < SparseBlock; l++ {
		var sum float64
		for k, d := range idx {
			sum += float64(val[k]) * float64(blockT[int(d)*SparseBlock+l])
		}
		bound, set := sparseBound(idx, val, blockT, l), mask&(1<<l) != 0
		if sum >= float64(thr)+bound && !set || sum < float64(thr)-bound && set {
			t.Fatalf("%s lane %d: sum %v, thr %v, bound %g, bit %v", at, l, sum, thr, bound, set)
		}
	}
}

// sparseRow draws nnz distinct coordinates below dim, in random order, with
// values from N(0, 1).
func sparseRow(rng *rand.Rand, dim, nnz int) ([]int32, []float32) {
	idx := make([]int32, nnz)
	val := make([]float32, nnz)
	for k, d := range rng.Perm(dim)[:nnz] {
		idx[k], val[k] = int32(d), float32(rng.NormFloat64())
	}
	return idx, val
}

// Every nonzero count from none to dim (odd ones exercise the AVX2 kernel's
// single-nonzero tail), on both paths, with thresholds on, just off and far
// from a lane's sum.
func TestSparseAtLeast32(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for _, mode := range []string{"scalar", "auto"} {
		forceKernels(t, mode)
		for _, dim := range []int{1, 2, 3, 7, 33, 256} {
			blockT := randArena(rng, dim*SparseBlock)
			for nnz := 0; nnz <= dim; nnz += 1 + nnz/5 {
				idx, val := sparseRow(rng, dim, nnz)
				var lane float32
				for k, d := range idx {
					lane += val[k] * blockT[int(d)*SparseBlock+rng.Intn(SparseBlock)]
				}
				for _, thr := range []float32{lane, math.Nextafter32(lane, -1), 0, -1e30, 1e30, float32(math.Inf(-1))} {
					at := fmt.Sprintf("%s dim=%d nnz=%d thr=%v", mode, dim, nnz, thr)
					checkSparseLanes(t, at, SparseAtLeast32(idx, val, blockT, thr), idx, val, blockT, thr)
				}
			}
		}
	}
}

// The mask is exact where the sums are: small integers sum without rounding
// on either path, so every lane compares its true sum, ties included.
func TestSparseAtLeast32ExactSums(t *testing.T) {
	const dim = 9
	blockT := make([]float32, dim*SparseBlock)
	for d := 0; d < dim; d++ {
		for l := 0; l < SparseBlock; l++ {
			blockT[d*SparseBlock+l] = float32((d*7+l*3)%11 - 5)
		}
	}
	idx, val := []int32{8, 0, 3}, []float32{2, -1, 1}
	for _, mode := range []string{"scalar", "auto"} {
		forceKernels(t, mode)
		for thr := float32(-25); thr <= 25; thr++ {
			var want uint32
			for l := 0; l < SparseBlock; l++ {
				var sum float32
				for k, d := range idx {
					sum += val[k] * blockT[int(d)*SparseBlock+l]
				}
				if sum >= thr {
					want |= 1 << l
				}
			}
			if got := SparseAtLeast32(idx, val, blockT, thr); got != want {
				t.Fatalf("%s thr=%v: mask %032b, want %032b", mode, thr, got, want)
			}
		}
		if got := SparseAtLeast32(nil, nil, blockT, 0); got != math.MaxUint32 {
			t.Fatalf("%s: an empty row sums to 0 >= 0 in every lane, got %032b", mode, got)
		}
		nan := []float32{float32(math.NaN())}
		if got := SparseAtLeast32([]int32{0}, nan, blockT, float32(math.Inf(-1))); got != 0 {
			t.Fatalf("%s: a NaN sum must compare false, got %032b", mode, got)
		}
	}
}

func TestSparseAtLeast32Bounds(t *testing.T) {
	blockT := make([]float32, 4*SparseBlock)
	for _, mode := range []string{"scalar", "auto"} {
		forceKernels(t, mode)
		for name, call := range map[string]func(){
			"index = dim":    func() { SparseAtLeast32([]int32{0, 4}, []float32{1, 1}, blockT, 0) },
			"negative index": func() { SparseAtLeast32([]int32{-1}, []float32{1}, blockT, 0) },
			"odd last index": func() { SparseAtLeast32([]int32{1, 2, 9}, []float32{1, 1, 1}, blockT, 0) },
			"short values":   func() { SparseAtLeast32([]int32{0, 1}, []float32{1}, blockT, 0) },
			"ragged block":   func() { SparseAtLeast32([]int32{0}, []float32{1}, blockT[:33], 0) },
			"empty block":    func() { SparseAtLeast32([]int32{0}, []float32{1}, nil, 0) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s %s: expected a panic", mode, name)
					}
				}()
				call()
			}()
		}
	}
}

// BenchmarkSparseAtLeast32 runs the join's shape — 64 sparse A rows against
// one 32-row block, dim 256 — for nonzero counts from hashed-record sparse to
// fully dense. Its ns/pair against BenchmarkDotTile's rows=64x32 is what
// fixes the exact join's dense-row cutoff (package ann, sparseNNZPerDim).
func BenchmarkSparseAtLeast32(b *testing.B) {
	for _, nnz := range []int{16, 64, 128, 192, 256} {
		for _, mode := range []string{"scalar", "auto"} {
			b.Run(fmt.Sprintf("rows=64x32/nnz=%d/%s", nnz, mode), func(b *testing.B) {
				prev := Kernels()
				if err := SetKernels(mode); err != nil {
					b.Fatal(err)
				}
				defer SetKernels(prev)
				rng := rand.New(rand.NewSource(1))
				blockT := randArena(rng, benchDim*SparseBlock)
				idx, val := make([][]int32, 64), make([][]float32, 64)
				for i := range idx {
					idx[i], val[i] = sparseRow(rng, benchDim, nnz)
				}
				var sink uint32
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					for i := range idx {
						sink |= SparseAtLeast32(idx[i], val[i], blockT, 0.5)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(64*SparseBlock), "ns/pair")
				sinkF32 = float32(sink)
			})
		}
	}
}
