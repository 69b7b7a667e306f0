package vector

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
)

// simdTestDims covers the asm kernels' three regimes (32/16-wide main loop,
// 8-wide loop, scalar tail) and their boundaries.
var simdTestDims = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64, 300, 1000}

// TestMain fails a run that ends on another kernel path than it began on.
func TestMain(m *testing.M) { os.Exit(KernelsRestored(m.Run)) }

// relClose asserts agreement within 1e-4 relative error: the bound between
// two different reduction orders (the tile kernel's and Dot's), which share
// no bits.
func relClose(t *testing.T, name string, got, want float32) {
	t.Helper()
	diff := math.Abs(float64(got) - float64(want))
	scale := math.Max(1, math.Max(math.Abs(float64(got)), math.Abs(float64(want))))
	if diff/scale > 1e-4 {
		t.Errorf("%s: %v vs %v (rel err %g)", name, got, want, diff/scale)
	}
}

// sameF32 asserts that a kernel and its twin returned the same bits.
func sameF32(t *testing.T, name string, simd, scalar float32) {
	t.Helper()
	if math.Float32bits(simd) != math.Float32bits(scalar) {
		t.Errorf("%s: avx2 %v (%#08x) vs scalar %v (%#08x)", name, simd, math.Float32bits(simd), scalar, math.Float32bits(scalar))
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

// checkAllKernels holds every kernel that reaches a caller's state to its
// twin bit for bit on one (a, b) input pair, through the dispatch: Dot,
// Norm, the gather over a flat arena and over a bitmask-row store, a 1×1
// DotTile, then Normalize, coordinate by coordinate.
func checkAllKernels(t *testing.T, a, b []float32) {
	t.Helper()
	var got [2][]float32
	for p, mode := range []string{"avx2", "scalar"} {
		ForceKernels(t, mode)
		out := make([]float32, 3)
		if len(a) > 0 {
			c := NewSparseRows(len(b))
			c.Append(b)
			DotGather(a, b, len(b), []int32{0}, out[:1])
			c.DotGather(a, []int32{0}, out[1:2])
			DotTile(a, len(a), 1, b, len(b), 1, len(a), out[2:])
		}
		got[p] = append(append([]float32{Dot(a, b), Norm(a)}, out...), Normalize(slices.Clone(a))...)
	}
	for i := range got[0] {
		sameF32(t, fmt.Sprintf("value %d of Dot, Norm, DotGather, SparseRows.DotGather, DotTile, Normalize…", i), got[0][i], got[1][i])
	}
}

// The twins summed in the assembly's order: the bitmask gather over a
// multi-chunk store on every path, and checkAllKernels at every length regime and
// unaligned base.
func TestSIMDMatchesScalar(t *testing.T) {
	if !hasAVX2 {
		t.Skip("CPU lacks AVX2+FMA")
	}
	rng := rand.New(rand.NewSource(42))
	for _, dim := range simdTestDims {
		for offset := 0; offset < 4; offset++ {
			checkAllKernels(t, randVecOff(rng, dim, offset), randVecOff(rng, dim, offset+1))
		}
		s, dense := randSparseRows(rng, dim, 3*DescChunkRows+5)
		q := randVecOff(rng, dim, 3)
		idxs := chunkEdges(s)
		paths := map[string][]float32{}
		for _, mode := range kernelPaths(t) {
			ForceKernels(t, mode)
			paths[mode] = checkMaskGather(t, s, dense, q, idxs)
		}
		for mode, got := range paths {
			for j := range idxs {
				sameF32(t, fmt.Sprintf("SparseRows.DotGather %s dim %d row %d", mode, dim, idxs[j]), got[j], paths["scalar"][j])
			}
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
		ForceKernels(t, "avx2")
		if got := CosineUnitDist(zero, v); got != 1 {
			t.Errorf("dim %d: CosineUnitDist(0, v) = %v on avx2 path, want 1", dim, got)
		}
		if got := Norm(zero); got != 0 {
			t.Errorf("dim %d: Norm(0) = %v on avx2 path, want 0", dim, got)
		}
	}
}

// TestDispatchedAPIAgrees exercises the public API (not the raw kernels)
// under both SetKernels modes: Norm, both distances and CosineUnitGather
// return the same bits.
func TestDispatchedAPIAgrees(t *testing.T) {
	if !hasAVX2 {
		t.Skip("CPU lacks AVX2+FMA")
	}
	rng := rand.New(rand.NewSource(44))
	for _, dim := range simdTestDims {
		a, b := randVecOff(rng, dim, 0), randVecOff(rng, dim, 2)
		type sample struct{ norm, cos, euclid, gathered float32 }
		run := func(mode string) sample {
			ForceKernels(t, mode)
			g := make([]float32, 1)
			CosineUnitGather(a, b, dim, []int32{0}, g)
			return sample{Norm(a), CosineUnitDist(a, b), EuclideanDist(a, b), g[0]}
		}
		simd := run("avx2")
		scalar := run("scalar")
		sameF32(t, "Norm", simd.norm, scalar.norm)
		sameF32(t, "CosineUnitDist", simd.cos, scalar.cos)
		sameF32(t, "EuclideanDist", simd.euclid, scalar.euclid)
		sameF32(t, "CosineUnitGather", simd.gathered, scalar.gathered)
	}
}

func TestSetKernels(t *testing.T) {
	ForceKernels(t, "scalar")
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
	switch {
	case hasAVX512:
		want = "avx512"
	case hasAVX2:
		want = "avx2"
	}
	if Kernels() != want {
		t.Fatalf("Kernels() = %q after SetKernels(auto), want %q", Kernels(), want)
	}
	if !hasAVX2 {
		if err := SetKernels("avx2"); err == nil {
			t.Fatal("SetKernels(avx2) must error on a CPU without AVX2+FMA")
		}
	} else if err := SetKernels("avx2"); err != nil || Kernels() != "avx2" {
		t.Fatalf("SetKernels(avx2) = %v, then Kernels() = %q", err, Kernels())
	}
	if !hasAVX512 {
		if err := SetKernels("avx512"); err == nil {
			t.Fatal("SetKernels(avx512) must error on a CPU or OS without AVX-512F")
		}
	} else if err := SetKernels("avx512"); err != nil || Kernels() != "avx512" {
		t.Fatalf("SetKernels(avx512) = %v, then Kernels() = %q", err, Kernels())
	}
}

// TestSetKernelsRoundTrip: on every path the CPU has, SetKernels(Kernels())
// selects the path it is on, so a test that saves Kernels() and hands it
// back restores the path.
func TestSetKernelsRoundTrip(t *testing.T) {
	ForceKernels(t, "auto")
	for _, mode := range kernelPaths(t) {
		if err := SetKernels(mode); err != nil {
			t.Fatal(err)
		}
		on := Kernels()
		if err := SetKernels(on); err != nil || Kernels() != on {
			t.Fatalf("on %s: SetKernels(%q) = %v, then Kernels() = %q", mode, on, err, Kernels())
		}
	}
}

// FuzzSIMDKernels feeds arbitrary byte-derived float vectors through every
// kernel and its twin, bit for bit (checkAllKernels), then re-reads the same
// floats as two arenas of short rows — dimension, strides and row counts all
// derived from the input length — and holds the tile kernels to
// checkTileKernels, the raw gather kernel to the single-pair one, and both
// sparse-row kernels to checkSparseLanes.
// Inputs are clamped to finite values below 1e18, so the sums stay finite.
func FuzzSIMDKernels(f *testing.F) {
	if !hasAVX2 {
		f.Skip("CPU lacks AVX2+FMA")
	}
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{8, 7, 6, 5, 4, 3, 2, 1})
	f.Add(make([]byte, 4*33), make([]byte, 4*33))
	f.Add(bytes.Repeat([]byte{0x3f, 0x80, 0x12, 0xbe, 0x9a}, 4*23), bytes.Repeat([]byte{0x40, 0x07, 0x3e}, 7*31))
	f.Add([]byte{0x00, 0x00, 0x80, 0x3f}, []byte{0x00, 0x00, 0x80, 0xbf}) // 1.0, -1.0
	// a = (6.4e-10, 6.4e-10), b = (-7.9e17, 7.9e17): the products cancel
	// exactly, and the FMA keeps the first one's rounding error (4.51).
	f.Add([]byte("0000000000000000"), []byte("000\xdd000]"))
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
			// Clamp to a finite, overflow-safe range: NaN payloads are not
			// part of the contract.
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
		for ahead := 0; ahead <= len(idxs)+1; ahead += 1 + ahead/3 {
			dotGatherAVX2(&q[0], &b[0], dim, strideB, &idxs[0], len(idxs), ahead, &out[0])
			for j, i := range idxs {
				if want := dotAVX2(q, row(b, strideB, dim, int(i))); math.Float32bits(out[j]) != math.Float32bits(want) {
					t.Fatalf("dotGatherAVX2 dim %d ahead %d: out[%d] = %v, dotAVX2 = %v", dim, ahead, j, out[j], want)
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

// TestSparseLayoutExact holds the skipping of zero coordinates (layout) to
// the dense twin and the assembly, and in particular a sum rounded to −0
// before a zero coordinate of the query (−0 + +0 is +0; in a 5-wide vector,
// all tail, the −0 would reach the result).
func TestSparseLayoutExact(t *testing.T) {
	at := func(dim int, vals map[int]float32) []float32 {
		v := make([]float32, dim)
		for i, x := range vals {
			v[i] = x
		}
		return v
	}
	b45 := make([]float32, 45)
	for i := range b45 {
		b45[i] = float32(i%7) - 3
	}
	for _, c := range []struct {
		name string
		q, b []float32
	}{
		{"32 lanes, 8 and a tail", at(45, map[int]float32{1: 0.5, 3: 0.5, 33: 0.5, 44: 0.5}), b45},
		{"−0 then +0", at(5, map[int]float32{0: -0x1p-80}), at(5, map[int]float32{0: 0x1p-80, 1: 1})},
	} {
		for _, tile := range []bool{false, true} {
			var lb layoutBuf
			qs, dense := newLayout(c.q, tile, &lb), newLayout(c.q, tile, nil)
			want := dense.row(c.b)
			sameF32(t, fmt.Sprintf("%s (tile %v) sparse vs dense", c.name, tile), qs.row(c.b), want)
			if hasAVX2 {
				dim, asm := len(c.q), [1]float32{dotAVX2(c.q, c.b)}
				if tile {
					tileAVX2(c.q, dim, 1, c.b, dim, 1, dim, asm[:])
				}
				sameF32(t, fmt.Sprintf("%s (tile %v) assembly", c.name, tile), asm[0], want)
			}
		}
	}
}

// TestFMARoundsOnce drives the twin through the steps its cheap rounding
// hands to fma32, in the tail's FMA chain, each against its exact answer:
// sums whose float64 rounding lands on a float32 midpoint from above and
// from below (1 + 2^-24 + 2^-60 rounds once to 1 + 2^-23, twice to 1;
// 1 + 3·2^-24 − 2^-60 once to 1 + 2^-23, twice to 1 + 2^-22),
// a sum that overflows float32 and must stay +Inf, and a subnormal sum,
// 2^-140 + 2^-150 + 2^-186, which float32 rounds at 2^-149.
func TestFMARoundsOnce(t *testing.T) {
	for _, c := range []struct {
		name string
		a, b []float32
		want float32
	}{
		// 4097·16773121 = 2^36 + 1 and 262143·262145 = 2^36 − 1.
		{"above a midpoint", []float32{1, 4097 * 0x1p-12}, []float32{1, 16773121 * 0x1p-48}, 1 + 0x1p-23},
		{"below a midpoint", []float32{1 + 0x1p-23, 262143 * 0x1p-18}, []float32{1, 262145 * 0x1p-42}, 1 + 0x1p-23},
		{"overflow", []float32{0x1p64, 0x1p63}, []float32{0x1p64, -0x1p64}, float32(math.Inf(1))},
		{"subnormal", []float32{0x1p-70, (1 + 0x1p-12) * 0x1p-75}, []float32{0x1p-70, 16773121 * 0x1p-99}, 0x1p-140 + 0x1p-149},
	} {
		sameF32(t, c.name+" twin vs exact", c.want, dotScalar(c.a, c.b))
		if hasAVX2 {
			sameF32(t, c.name+" assembly vs exact", dotAVX2(c.a, c.b), c.want)
		}
	}
}
