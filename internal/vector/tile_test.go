package vector

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkTileKernels holds one tile layout against the two properties the tile
// layer promises: every AVX2 value is within the SIMD bound of the scalar
// single-pair kernel, and — on either path — a pair computed alone as a 1×1
// tile has the very bits it has inside the tile, whichever register lane,
// edge group or self-paired odd row it fell in.
func checkTileKernels(t *testing.T, a []float32, strideA, na int, b []float32, strideB, nb, dim int) {
	t.Helper()
	type path struct {
		name string
		tile func(a []float32, strideA, na int, b []float32, strideB, nb, dim int, out []float32)
	}
	paths := []path{{"scalar", tileScalar}}
	if hasAVX2 {
		paths = append(paths, path{"avx2", tileAVX2})
	}
	for _, p := range paths {
		dots := make([]float32, na*nb)
		p.tile(a, strideA, na, b, strideB, nb, dim, dots)
		for i := 0; i < na; i++ {
			for j := 0; j < nb; j++ {
				ai, bj := row(a, strideA, dim, i), row(b, strideB, dim, j)
				at := fmt.Sprintf("%s dim=%d %dx%d strides %d,%d pair (%d,%d)", p.name, dim, na, nb, strideA, strideB, i, j)
				relClose(t, at+" DotTile", dots[i*nb+j], dotScalar(ai, bj))
				var alone [1]float32
				p.tile(ai, dim, 1, bj, dim, 1, dim, alone[:])
				if math.Float32bits(alone[0]) != math.Float32bits(dots[i*nb+j]) {
					t.Fatalf("%s: DotTile value depends on position: %v alone, %v in the tile", at, alone[0], dots[i*nb+j])
				}
			}
		}
	}
}

func randArena(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = rng.Float32()*2 - 1
	}
	return out
}

// Odd dims (every tail length of the 8-wide loop), strides wider than the
// rows, and every edge shape of the 2×4 register tile: odd A counts, B
// counts below, at and just past a multiple of four.
func TestTileKernelsMatchSinglePair(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, dim := range []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 64, 255, 256, 300} {
		for _, na := range []int{1, 2, 3, 5} {
			for _, nb := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13} {
				sa, sb := dim+rng.Intn(4), dim+rng.Intn(4)
				// One float of slack in front, so rows start unaligned.
				a, b := randArena(rng, 1+na*sa)[1:], randArena(rng, 1+nb*sb)[1:]
				checkTileKernels(t, a, sa, na, b, sb, nb, dim)
			}
		}
	}
}

// The exported kernel dispatches like Dot, and rejects layouts that would
// read outside its arenas.
func TestTileDispatchAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a, b := randArena(rng, 3*20), randArena(rng, 6*20)
	for _, mode := range []string{"scalar", "auto"} {
		forceKernels(t, mode)
		out := make([]float32, 3*6)
		DotTile(a, 20, 3, b, 20, 6, 17, out)
		want := make([]float32, 3*6)
		if simdOn {
			tileAVX2(a, 20, 3, b, 20, 6, 17, want)
		} else {
			tileScalar(a, 20, 3, b, 20, 6, 17, want)
		}
		for x := range out {
			if out[x] != want[x] {
				t.Fatalf("%s: DotTile[%d] = %v, active kernel gives %v", mode, x, out[x], want[x])
			}
		}
	}
	for name, call := range map[string]func(){
		"short A arena": func() { DotTile(a, 20, 4, b, 20, 6, 17, make([]float32, 24)) },
		"short B arena": func() { DotTile(a, 20, 3, b, 20, 7, 17, make([]float32, 21)) },
		"short out":     func() { DotTile(a, 20, 3, b, 20, 6, 17, make([]float32, 17)) },
		"stride < dim":  func() { DotTile(a, 16, 3, b, 20, 6, 17, make([]float32, 18)) },
		"zero dim":      func() { DotTile(a, 20, 3, b, 20, 6, 0, make([]float32, 18)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic", name)
				}
			}()
			call()
		}()
	}
	DotTile(nil, 4, 0, b, 20, 6, 4, nil) // empty tiles are fine
}

// CosineUnitTile must agree with CosineUnitDist on every block shape, zero
// vectors included, and a block's values must not depend on how the caller
// cut the blocks.
func TestCosineUnitTileMatchesDist(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	const dim, na, nb = 19, 7, 11
	a, b := NewStore(dim), NewStore(dim)
	for i := 0; i < na; i++ {
		a.Append(randArena(rng, dim))
	}
	for j := 0; j < nb; j++ {
		b.Append(randArena(rng, dim))
	}
	a.SetRow(2, make([]float32, dim))
	b.SetRow(5, make([]float32, dim))
	for _, mode := range []string{"scalar", "auto"} {
		forceKernels(t, mode)
		tile := CosineUnitTile(a, b)
		whole := make([]float32, na*nb)
		tile(0, na, 0, nb, whole)
		for i := 0; i < na; i++ {
			for j := 0; j < nb; j++ {
				relClose(t, fmt.Sprintf("%s (%d,%d)", mode, i, j), whole[i*nb+j], CosineUnitDist(a.At(i), b.At(j)))
			}
		}
		if whole[2*nb+3] != 1 || whole[0*nb+5] != 1 {
			t.Fatalf("%s: cosine to a zero vector must be distance 1, got %v and %v", mode, whole[2*nb+3], whole[5])
		}
		part := make([]float32, 3*4)
		tile(3, 6, 5, 9, part)
		for i := 3; i < 6; i++ {
			for j := 5; j < 9; j++ {
				if part[(i-3)*4+(j-5)] != whole[i*nb+j] {
					t.Fatalf("%s: pair (%d,%d) differs between blockings", mode, i, j)
				}
			}
		}
	}
}

func BenchmarkDotTile(b *testing.B) {
	// 64 A rows against a B block of tb rows: the shapes the exact join
	// runs. Compare ns/pair with BenchmarkDotBatch's ns per row.
	for _, tb := range []int{32, 64} {
		for _, mode := range []string{"scalar", "auto"} {
			b.Run(fmt.Sprintf("rows=64x%d/%s", tb, mode), func(b *testing.B) {
				prev := Kernels()
				if err := SetKernels(mode); err != nil {
					b.Fatal(err)
				}
				defer SetKernels(prev)
				vs := benchVecs(64 + tb)
				sa, sb := StoreFromRows(benchDim, vs[:64]), StoreFromRows(benchDim, vs[64:])
				out := make([]float32, 64*tb)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					DotTile(sa.Raw(), benchDim, 64, sb.Raw(), benchDim, tb, benchDim, out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(64*tb), "ns/pair")
			})
		}
	}
}
