package vector

import "fmt"

// The many-queries × many-rows tile kernel, DotTile: out[i*nb+j] is the
// inner product of A row i and B row j, for every i < na, j < nb. Row i of a
// lives at a[i*strideA : i*strideA+dim] (strides may exceed dim), likewise b.
// CosineUnitTile puts the merging distance on top of it for the exact join.
//
// Where the one-query batch layer (batch.go) calls the single-pair kernel
// once per row, the AVX2 path here runs a 2×4 register tile: eight pairs
// accumulate at once and every loaded vector is used two or four times, so
// a pair costs about half of a dispatched Dot. The price is a reduction
// order of its own — one 8-lane accumulator per pair instead of Dot's four —
// so tile values agree with Dot to float reassociation (~1e-7 relative), not
// bit for bit. The portable path sums each pair in the tile kernel's order,
// so both paths return the same bits.
//
// What both paths guarantee is position independence: a pair's value is a
// function of the two rows alone, never of where in a tile, an edge group or
// a caller's blocking it was computed. The exact mutual-top-K join relies on
// that to return the same pairs for every tile size and worker count.

func checkTile(a []float32, strideA, na int, b []float32, strideB, nb, dim int, out []float32) {
	if dim <= 0 || strideA < dim || strideB < dim {
		panic(fmt.Sprintf("vector: tile dim %d with strides %d, %d", dim, strideA, strideB))
	}
	if na < 0 || nb < 0 || len(out) < na*nb {
		panic(fmt.Sprintf("vector: tile %dx%d needs %d outputs, have %d", na, nb, na*nb, len(out)))
	}
	if na > 0 && len(a) < (na-1)*strideA+dim {
		panic(fmt.Sprintf("vector: tile wants %d A rows of stride %d, arena has %d floats", na, strideA, len(a)))
	}
	if nb > 0 && len(b) < (nb-1)*strideB+dim {
		panic(fmt.Sprintf("vector: tile wants %d B rows of stride %d, arena has %d floats", nb, strideB, len(b)))
	}
}

// DotTile sets out[i*nb+j] to the inner product of A row i and B row j.
func DotTile(a []float32, strideA, na int, b []float32, strideB, nb, dim int, out []float32) {
	checkTile(a, strideA, na, b, strideB, nb, dim, out)
	if simdOn {
		tileAVX2(a, strideA, na, b, strideB, nb, dim, out)
		return
	}
	tileScalar(a, strideA, na, b, strideB, nb, dim, out)
}

func tileScalar(a []float32, strideA, na int, b []float32, strideB, nb, dim int, out []float32) {
	var lb layoutBuf
	for i := 0; i < na; i++ {
		ai := newLayout(row(a, strideA, dim, i), true, &lb)
		o := out[i*nb : i*nb+nb]
		for j := range o {
			o[j] = ai.row(row(b, strideB, dim, j))
		}
	}
}

// tileAVX2 covers an na×nb tile with the 2×4 kernel dotTileAVX2. Edges never
// get a kernel of their own: an odd last A row is paired with itself, a
// ragged last B group is the four rows ending at nb (recomputing up to three
// columns to the same bits), and fewer than four B rows are fed one at a
// time as a stride-0 group of four copies.
func tileAVX2(a []float32, strideA, na int, b []float32, strideB, nb, dim int, out []float32) {
	if na == 0 || nb == 0 {
		return
	}
	for i := 0; i < na; i += 2 {
		i1 := i + 1
		if i1 == na {
			i1 = i
		}
		a0, a1 := &a[i*strideA], &a[i1*strideA]
		if nb < 4 {
			var o0, o1 [4]float32
			for j := 0; j < nb; j++ {
				dotTileAVX2(a0, a1, &b[j*strideB], 0, 1, dim, &o0[0], &o1[0])
				out[i*nb+j], out[i1*nb+j] = o0[0], o1[0]
			}
			continue
		}
		dotTileAVX2(a0, a1, &b[0], strideB, nb/4, dim, &out[i*nb], &out[i1*nb])
		if nb%4 != 0 {
			j := nb - 4
			dotTileAVX2(a0, a1, &b[j*strideB], strideB, 1, dim, &out[i*nb+j], &out[i1*nb+j])
		}
	}
}

// TileDist evaluates CosineUnitDist between A rows [i0, i1) and B rows
// [j0, j1) of the two stores it was bound to: out[(i-i0)*(j1-j0)+(j-j0)] is
// the distance from A row i to B row j.
type TileDist func(i0, i1, j0, j1 int, out []float32)

// CosineUnitTile binds the merging distance to two arenas of equal
// dimensionality and returns its tiled form: 1 - DotTile, on the tile
// kernels' reduction order (see the file comment). The stores are captured,
// not copied, and must stay unchanged while the kernel is in use; the
// returned function is safe for concurrent use.
func CosineUnitTile(a, b *Store) TileDist {
	if a.Dim() != b.Dim() {
		panic(fmt.Sprintf("vector: dimension mismatch %d vs %d", a.Dim(), b.Dim()))
	}
	dim := a.Dim()
	ra, rb := a.Raw(), b.Raw()
	return func(i0, i1, j0, j1 int, out []float32) {
		out = out[:(i1-i0)*(j1-j0)]
		DotTile(ra[i0*dim:], dim, i1-i0, rb[j0*dim:], dim, j1-j0, dim, out)
		for x, dot := range out {
			out[x] = 1 - dot
		}
	}
}
