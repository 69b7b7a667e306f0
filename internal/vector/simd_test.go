package vector

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// simdTestDims covers the asm kernels' three regimes (32/16-wide main loop,
// 8-wide loop, scalar tail) and their boundaries.
var simdTestDims = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64, 300, 1000}

// forceKernels flips the dispatch for the duration of a test and restores
// the prior path on cleanup. Tests using it must not run in parallel.
func forceKernels(t *testing.T, mode string) {
	t.Helper()
	prev := Kernels()
	if err := SetKernels(mode); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := SetKernels(prev); err != nil {
			t.Fatal(err)
		}
	})
}

// relClose asserts agreement within 1e-4 relative error (the tentpole's
// SIMD-vs-scalar bound; observed divergence is ~1e-7 — FMA keeps the
// products exact until the adds).
func relClose(t *testing.T, name string, got, want float32) {
	t.Helper()
	diff := math.Abs(float64(got) - float64(want))
	scale := math.Max(1, math.Max(math.Abs(float64(got)), math.Abs(float64(want))))
	if diff/scale > 1e-4 {
		t.Errorf("%s: simd %v vs scalar %v (rel err %g)", name, got, want, diff/scale)
	}
}

// randVecOff returns a slice of dim values starting at an unaligned offset
// into a larger backing array, so the asm's handling of arbitrary
// (non-32-byte) base addresses is exercised.
func randVecOff(rng *rand.Rand, dim, offset int) []float32 {
	backing := make([]float32, dim+offset)
	for i := range backing {
		backing[i] = rng.Float32()*2 - 1
	}
	return backing[offset : offset+dim : offset+dim]
}

// checkAllKernels compares every SIMD kernel against its scalar reference on
// one (a, b) input pair.
func checkAllKernels(t *testing.T, a, b []float32) {
	t.Helper()
	relClose(t, "Dot", dotAVX2(a, b), dotScalar(a, b))
}

func TestSIMDMatchesScalar(t *testing.T) {
	if !hasAVX2 {
		t.Skip("CPU lacks AVX2+FMA")
	}
	rng := rand.New(rand.NewSource(42))
	for _, dim := range simdTestDims {
		for offset := 0; offset < 4; offset++ {
			checkAllKernels(t, randVecOff(rng, dim, offset), randVecOff(rng, dim, offset+1))
		}
		// The gather over a multi-chunk store, both paths: each path's
		// result has its own single-pair bits, and the two paths agree.
		s := randChunked(rng, dim, 2*ChunkRows+5)
		q := randVecOff(rng, dim, 3)
		idxs := boundaryIdxs(s.Len())
		paths := map[string][]float32{}
		for _, mode := range []string{"avx2", "scalar"} {
			forceKernels(t, mode)
			paths[mode] = checkChunkedGather(t, mode, s, q, idxs)
		}
		for j := range idxs {
			relClose(t, fmt.Sprintf("Chunked.DotGather dim %d row %d", dim, idxs[j]), paths["avx2"][j], paths["scalar"][j])
		}
	}
}

func TestSIMDZeroVectors(t *testing.T) {
	if !hasAVX2 {
		t.Skip("CPU lacks AVX2+FMA")
	}
	rng := rand.New(rand.NewSource(43))
	for _, dim := range []int{0, 1, 7, 8, 17, 64, 300} {
		zero := make([]float32, dim)
		v := randVecOff(rng, dim, 1)
		checkAllKernels(t, zero, v)
		checkAllKernels(t, v, zero)
		checkAllKernels(t, zero, zero)
		// The exported zero-vector semantics must hold on the SIMD path too.
		forceKernels(t, "avx2")
		if got := CosineUnitDist(zero, v); got != 1 {
			t.Errorf("dim %d: CosineUnitDist(0, v) = %v on avx2 path, want 1", dim, got)
		}
		if got := Norm(zero); got != 0 {
			t.Errorf("dim %d: Norm(0) = %v on avx2 path, want 0", dim, got)
		}
	}
}

// TestDispatchedAPIAgrees exercises the public API (not the raw kernels)
// under both SetKernels modes: Norm, both distances and CosineUnitGather must
// agree within the property bound.
func TestDispatchedAPIAgrees(t *testing.T) {
	if !hasAVX2 {
		t.Skip("CPU lacks AVX2+FMA")
	}
	rng := rand.New(rand.NewSource(44))
	for _, dim := range simdTestDims {
		a, b := randVecOff(rng, dim, 0), randVecOff(rng, dim, 2)
		type sample struct{ norm, cos, euclid, gathered float32 }
		run := func(mode string) sample {
			if err := SetKernels(mode); err != nil {
				t.Fatal(err)
			}
			g := make([]float32, 1)
			CosineUnitGather(a, b, dim, []int32{0}, g)
			return sample{Norm(a), CosineUnitDist(a, b), EuclideanDist(a, b), g[0]}
		}
		simd := run("avx2")
		scalar := run("scalar")
		if err := SetKernels("auto"); err != nil {
			t.Fatal(err)
		}
		relClose(t, "Norm", simd.norm, scalar.norm)
		relClose(t, "CosineUnitDist", simd.cos, scalar.cos)
		relClose(t, "EuclideanDist", simd.euclid, scalar.euclid)
		relClose(t, "CosineUnitGather", simd.gathered, scalar.gathered)
	}
}

func TestSetKernels(t *testing.T) {
	forceKernels(t, "scalar")
	if Kernels() != "scalar" {
		t.Fatalf("Kernels() = %q after SetKernels(scalar)", Kernels())
	}
	if err := SetKernels("bogus"); err == nil {
		t.Fatal("SetKernels accepted an unknown mode")
	}
	if err := SetKernels("auto"); err != nil {
		t.Fatal(err)
	}
	want := "scalar"
	if hasAVX2 {
		want = "avx2"
	}
	if Kernels() != want {
		t.Fatalf("Kernels() = %q after SetKernels(auto), want %q", Kernels(), want)
	}
	if !hasAVX2 {
		if err := SetKernels("avx2"); err == nil {
			t.Fatal("SetKernels(avx2) must error on a CPU without AVX2+FMA")
		}
	}
}

// FuzzSIMDKernels feeds arbitrary byte-derived float vectors through every
// SIMD/scalar kernel pair, then re-reads the same floats as two arenas of
// short rows — dimension, strides and row counts all derived from the input
// length — and holds the tile kernel to checkTileKernels, the gather
// kernel to the single-pair one, bit for bit, over a flat spine and a
// chunked one, and both sparse-row kernels to checkSparseLanes. NaN/Inf inputs are filtered: both paths propagate them,
// but relative-error comparison is meaningless there.
func FuzzSIMDKernels(f *testing.F) {
	if !hasAVX2 {
		f.Skip("CPU lacks AVX2+FMA")
	}
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{8, 7, 6, 5, 4, 3, 2, 1})
	f.Add(make([]byte, 4*33), make([]byte, 4*33))
	f.Add(bytes.Repeat([]byte{0x3f, 0x80, 0x12, 0xbe, 0x9a}, 4*23), bytes.Repeat([]byte{0x40, 0x07, 0x3e}, 7*31))
	f.Add([]byte{0x00, 0x00, 0x80, 0x3f}, []byte{0x00, 0x00, 0x80, 0xbf}) // 1.0, -1.0
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		n := min(len(ab), len(bb)) / 4
		if n == 0 {
			return
		}
		a := make([]float32, n)
		b := make([]float32, n)
		for i := 0; i < n; i++ {
			a[i] = math.Float32frombits(binary.LittleEndian.Uint32(ab[4*i:]))
			b[i] = math.Float32frombits(binary.LittleEndian.Uint32(bb[4*i:]))
			// Clamp to a finite, overflow-safe range: comparing reduction
			// orders is only meaningful when the sums stay finite.
			for _, v := range []*float32{&a[i], &b[i]} {
				if f64 := float64(*v); math.IsNaN(f64) || math.IsInf(f64, 0) || math.Abs(f64) > 1e18 {
					*v = 0
				}
			}
		}
		checkAllKernels(t, a, b)

		dim := 1 + n%11
		strideA, strideB := dim+n%3, dim+n%2
		if n < dim {
			return
		}
		na, nb := min((n-dim)/strideA+1, 5), min((n-dim)/strideB+1, 9)
		checkTileKernels(t, a, strideA, na, b, strideB, nb, dim)

		// The gather kernel over the same arena: up to 33 indexes read off
		// the input bytes (repeats included), every look-ahead from none to
		// past the end, each out[j] holding the single-pair kernel's bits.
		rowsB := (n-dim)/strideB + 1
		idxs := make([]int32, min(len(ab), 33))
		for j := range idxs {
			idxs[j] = int32(int(ab[j]) % rowsB)
		}
		out := make([]float32, len(idxs))
		q := a[:dim]
		// The arena goes in as the one-entry flat spine, and again cut into
		// chunks of 1<<shift rows, each its own allocation and the last one
		// partial, as a chunked store's spine addresses them.
		flat := [][]float32{b}
		shift := uint(len(bb) % 4)
		chunked := spineOf(b, strideB, rowsB, shift)
		for ahead := 0; ahead <= len(idxs)+1; ahead += 1 + ahead/3 {
			for _, sp := range []struct {
				spine [][]float32
				shift uint
			}{{flat, flatShift}, {chunked, shift}} {
				dotGatherAVX2(&q[0], &sp.spine[0], sp.shift, dim, strideB, &idxs[0], len(idxs), ahead, &out[0])
				for j, i := range idxs {
					if want := dotAVX2(q, row(b, strideB, dim, int(i))); math.Float32bits(out[j]) != math.Float32bits(want) {
						t.Fatalf("dotGatherAVX2 dim %d shift %d ahead %d: out[%d] = %v, dotAVX2 = %v", dim, sp.shift, ahead, j, out[j], want)
					}
				}
			}
		}

		// The sparse-row kernels: a dim×32 block cycling through b, and a
		// row whose nonzeros sit at the distinct coordinates the input
		// bytes name first, valued from a. Thresholds: zero, and each side
		// of one lane's sum.
		blockT := make([]float32, dim*SparseBlock)
		for x := range blockT {
			blockT[x] = b[x%n]
		}
		seen := make([]bool, dim)
		var sidx []int32
		var sval []float32
		for j, c := range ab {
			if d := int(c) % dim; !seen[d] {
				seen[d] = true
				sidx, sval = append(sidx, int32(d)), append(sval, a[j%n])
			}
		}
		var lane float32
		for k, d := range sidx {
			lane += sval[k] * blockT[int(d)*SparseBlock+int(bb[0])%SparseBlock]
		}
		for _, thr := range []float32{0, lane, math.Nextafter32(lane, float32(math.Inf(-1))), math.Nextafter32(lane, float32(math.Inf(1)))} {
			mask, ok := sparseAtLeast32AVX2(&sidx[0], &sval[0], len(sidx), &blockT[0], dim, thr)
			if !ok {
				t.Fatalf("sparseAtLeast32AVX2 dim %d refused in-range indexes %v", dim, sidx)
			}
			checkSparseLanes(t, fmt.Sprintf("avx2 dim %d thr %v", dim, thr), mask, sidx, sval, blockT, thr)
			checkSparseLanes(t, fmt.Sprintf("scalar dim %d thr %v", dim, thr), sparseAtLeast32Scalar(sidx, sval, blockT, thr), sidx, sval, blockT, thr)
		}
	})
}
