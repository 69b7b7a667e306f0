package vector

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sparseBound is the error bound MaskAtLeast32's contract allows around a
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

// randArena returns n floats uniform in [-1, 1).
func randArena(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = rng.Float32()*2 - 1
	}
	return out
}

// checkSparseLanes holds one MaskAtLeast32 mask to its contract: a lane
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

// maskOf returns the row whose coordinate idx[k] is val[k] for every k (the
// indexes distinct, in any order, below dim) as MaskAtLeast32 takes it: its
// mask words and its values in coordinate order.
func maskOf(dim int, idx []int32, val []float32) ([]uint32, []float32) {
	mask := make([]uint32, 2*((dim+63)/64))
	order := make([]int, len(idx))
	for k, d := range idx {
		mask[d>>5] |= 1 << (d & 31)
		order[k] = k
	}
	slices.SortFunc(order, func(p, q int) int { return int(idx[p] - idx[q]) })
	vals := make([]float32, len(idx))
	for k, o := range order {
		vals[k] = val[o]
	}
	return mask, vals
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

// sparsePaths are the MaskAtLeast32 tiers this CPU has, each a kernel path.
var sparsePaths = []string{"scalar", "avx2", "avx512"}

// Every nonzero count from none to dim, on every path, with thresholds on,
// just off and far from a lane's sum. The dimensions put set bits in every
// position of one and of several mask words, and counts that leave each
// accumulator set of the AVX2 and AVX-512 kernels last.
func TestMaskAtLeast32(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for _, mode := range sparsePaths {
		t.Run(mode, func(t *testing.T) {
			ForceKernels(t, mode)
			for _, dim := range []int{1, 2, 3, 7, 33, 64, 65, 130, 256} {
				blockT := randArena(rng, dim*SparseBlock)
				for nnz := 0; nnz <= dim; nnz += 1 + nnz/9 {
					idx, val := sparseRow(rng, dim, nnz)
					mask, vals := maskOf(dim, idx, val)
					var lane float32
					for k, d := range idx {
						lane += val[k] * blockT[int(d)*SparseBlock+rng.Intn(SparseBlock)]
					}
					for _, thr := range []float32{lane, math.Nextafter32(lane, -1), 0, -1e30, 1e30, float32(math.Inf(-1))} {
						at := fmt.Sprintf("%s dim=%d nnz=%d thr=%v", mode, dim, nnz, thr)
						checkSparseLanes(t, at, MaskAtLeast32(mask, vals, blockT, thr), idx, val, blockT, thr)
					}
				}
			}
		})
	}
}

// The mask is exact where the sums are: small integers sum without rounding
// on every path, so every lane compares its true sum, ties included. The
// rows have 3, 5 and 9 nonzeros, so each leaves a different accumulator set
// of each kernel last.
func TestMaskAtLeast32ExactSums(t *testing.T) {
	const dim = 9
	blockT := make([]float32, dim*SparseBlock)
	for d := 0; d < dim; d++ {
		for l := 0; l < SparseBlock; l++ {
			blockT[d*SparseBlock+l] = float32((d*7+l*3)%11 - 5)
		}
	}
	rows := []struct {
		idx []int32
		val []float32
	}{
		{[]int32{8, 0, 3}, []float32{2, -1, 1}},
		{[]int32{8, 0, 3, 4, 6}, []float32{2, -1, 1, -2, 1}},
		{[]int32{0, 1, 2, 3, 4, 5, 6, 7, 8}, []float32{1, -2, 1, 1, -1, 2, 1, -1, 1}},
	}
	for _, mode := range sparsePaths {
		t.Run(mode, func(t *testing.T) {
			ForceKernels(t, mode)
			for _, r := range rows {
				mask, vals := maskOf(dim, r.idx, r.val)
				for thr := float32(-40); thr <= 40; thr++ {
					var want uint32
					for l := 0; l < SparseBlock; l++ {
						var sum float32
						for k, d := range r.idx {
							sum += r.val[k] * blockT[int(d)*SparseBlock+l]
						}
						if sum >= thr {
							want |= 1 << l
						}
					}
					if got := MaskAtLeast32(mask, vals, blockT, thr); got != want {
						t.Fatalf("%s %d nonzeros thr=%v: mask %032b, want %032b", mode, len(vals), thr, got, want)
					}
				}
			}
			if got := MaskAtLeast32(make([]uint32, 2), nil, blockT, 0); got != math.MaxUint32 {
				t.Fatalf("%s: an empty row sums to 0 >= 0 in every lane, got %032b", mode, got)
			}
			nan := []float32{float32(math.NaN())}
			if got := MaskAtLeast32([]uint32{1, 0}, nan, blockT, float32(math.Inf(-1))); got != 0 {
				t.Fatalf("%s: a NaN sum must compare false, got %032b", mode, got)
			}
		})
	}
}

// A mask bit at or past the dimension, in the last word or in a word past
// it, a mask of another length and a value count that is not the mask's bit
// count are refused on every path.
func TestMaskAtLeast32Bounds(t *testing.T) {
	blockT := make([]float32, 4*SparseBlock)
	wide := make([]float32, 130*SparseBlock)
	for _, mode := range sparsePaths {
		t.Run(mode, func(t *testing.T) {
			ForceKernels(t, mode)
			for name, call := range map[string]func(){
				"bit = dim":          func() { MaskAtLeast32([]uint32{1<<0 | 1<<4, 0}, []float32{1, 1}, blockT, 0) },
				"bit 63":             func() { MaskAtLeast32([]uint32{0, 1 << 31}, []float32{1}, blockT, 0) },
				"bit = dim, word 3":  func() { MaskAtLeast32([]uint32{1, 0, 0, 0, 1 << 2, 0}, []float32{1, 1}, wide, 0) },
				"bit past dim":       func() { MaskAtLeast32([]uint32{1, 0, 0, 0, 0, 1 << 5}, []float32{1, 1}, wide, 0) },
				"short values":       func() { MaskAtLeast32([]uint32{3, 0}, []float32{1}, blockT, 0) },
				"extra values":       func() { MaskAtLeast32([]uint32{3, 0}, []float32{1, 1, 1}, blockT, 0) },
				"values, no bits":    func() { MaskAtLeast32([]uint32{0, 0}, []float32{1}, blockT, 0) },
				"short mask":         func() { MaskAtLeast32([]uint32{1}, []float32{1}, blockT, 0) },
				"long mask":          func() { MaskAtLeast32([]uint32{1, 0, 0, 0}, []float32{1}, blockT, 0) },
				"ragged block":       func() { MaskAtLeast32([]uint32{1, 0}, []float32{1}, blockT[:33], 0) },
				"empty block, a bit": func() { MaskAtLeast32([]uint32{1, 0}, []float32{1}, nil, 0) },
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
		})
	}
}

// BenchmarkMaskAtLeast32 runs the join's shape — 64 bitmask A rows against
// one 32-row block, dim 256 — for nonzero counts from hashed-record sparse to
// fully dense, on every path: the filter's cost per pair, which the exact
// join (package ann) pays on every row before it gathers the lanes that
// flag.
func BenchmarkMaskAtLeast32(b *testing.B) {
	for _, nnz := range []int{16, 64, 128, 192, 256} {
		for _, mode := range sparsePaths {
			b.Run(fmt.Sprintf("rows=64x32/nnz=%d/%s", nnz, mode), func(b *testing.B) {
				ForceKernels(b, mode)
				rng := rand.New(rand.NewSource(1))
				blockT := randArena(rng, benchDim*SparseBlock)
				masks, vals := make([][]uint32, 64), make([][]float32, 64)
				for i := range masks {
					idx, val := sparseRow(rng, benchDim, nnz)
					masks[i], vals[i] = maskOf(benchDim, idx, val)
				}
				var sink uint32
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					for i := range masks {
						sink |= MaskAtLeast32(masks[i], vals[i], blockT, 0.5)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(64*SparseBlock), "ns/pair")
				sinkF32 = float32(sink)
			})
		}
	}
}
