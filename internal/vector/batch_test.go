package vector

import (
	"math"
	"math/rand"
	"testing"
)

// testArena builds a rows×stride arena with dim meaningful columns per row
// (stride > dim leaves tail padding, as in a Store snapshot mid-append).
func testArena(rng *rand.Rand, rows, stride int) []float32 {
	data := make([]float32, rows*stride)
	for i := range data {
		data[i] = rng.Float32()*2 - 1
	}
	return data
}

// TestBatchMatchesSinglePair: each batch kernel must be bit-identical to its
// single-pair form per row, on whatever kernel path is active — the batch
// layer reorders no math.
func TestBatchMatchesSinglePair(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, mode := range []string{"scalar", "auto"} {
		ForceKernels(t, mode)
		for _, dim := range []int{1, 7, 16, 33, 64} {
			for _, stride := range []int{dim, dim + 3} {
				const rows = 9
				arena := testArena(rng, rows, stride)
				q := randVecOff(rng, dim, 1)
				rowAt := func(i int) []float32 { return arena[i*stride : i*stride+dim] }

				out := make([]float32, rows)
				DotBatch(q, arena, stride, out)
				for i := range out {
					if want := Dot(q, rowAt(i)); out[i] != want {
						t.Fatalf("%s dim %d stride %d: DotBatch[%d] = %v, Dot = %v", mode, dim, stride, i, out[i], want)
					}
				}

				// The gather form against a shuffled index set (with repeats).
				idxs := []int32{3, 0, 8, 3, 5}
				gout := make([]float32, len(idxs))
				DotGather(q, arena, stride, idxs, gout)
				for j, i := range idxs {
					if want := Dot(q, rowAt(int(i))); gout[j] != want {
						t.Fatalf("%s: DotGather[%d] = %v, want %v", mode, j, gout[j], want)
					}
				}
			}
		}
	}
}

// TestGatherMatchesSinglePair holds the gather form to the single-pair
// kernel bit for bit, on both kernel paths, across every regime of the
// assembly: dims 1…259 (no 32-wide pass, several, each 8-wide and scalar-tail
// remainder), padded and unpadded strides, blocks of 0…33 rows with repeated
// indexes, and — on the raw kernel — look-ahead distances from none to past the end of idxs, which must change
// no bit and write nothing beyond out[n).
func TestGatherMatchesSinglePair(t *testing.T) {
	const rows, maxN = 37, 33
	rng := rand.New(rand.NewSource(9))
	idxs := make([]int32, maxN)
	out := make([]float32, maxN+1)
	sentinel := float32(math.Inf(-1))
	for _, mode := range []string{"scalar", "auto"} {
		ForceKernels(t, mode)
		for dim := 1; dim <= 259; dim++ {
			for _, stride := range []int{dim, dim + 5} {
				arena := testArena(rng, rows, stride)
				q := randVecOff(rng, dim, 1)
				for j := range idxs {
					idxs[j] = int32(rng.Intn(rows))
				}
				idxs[7], idxs[8], idxs[20] = idxs[6], idxs[6], idxs[0] // repeats, adjacent and apart
				check := func(name string, n int) {
					t.Helper()
					for j := 0; j < n; j++ {
						want := Dot(q, row(arena, stride, dim, int(idxs[j])))
						if math.Float32bits(out[j]) != math.Float32bits(want) {
							t.Fatalf("%s %s dim %d stride %d n %d: out[%d] = %v, single-pair = %v", mode, name, dim, stride, n, j, out[j], want)
						}
					}
					if out[n] != sentinel {
						t.Fatalf("%s %s dim %d n %d: wrote past out[n)", mode, name, dim, n)
					}
				}
				for n := 0; n <= maxN; n++ {
					out[n] = sentinel
					DotGather(q, arena, stride, idxs[:n], out[:n])
					check("DotGather", n)
					if !simdOn || n == 0 || n%8 > 1 {
						continue
					}
					for _, ahead := range []int{0, 1, gatherAhead, 5, n, n + 40} {
						dotGatherAVX2(&q[0], &arena[0], dim, stride, &idxs[0], n, ahead, &out[0])
						check("dotGatherAVX2", n)
					}
				}
			}
		}
	}
}

// rowsFrom stores rows rows of arena, dim floats at a stride, as bitmask
// rows.
func rowsFrom(arena []float32, stride, dim, rows int) *SparseRows {
	s := NewSparseRows(dim)
	for i := range rows {
		s.Append(row(arena, stride, dim, i))
	}
	return s
}

// TestMetricGatherMatchesDist: CosineUnitGather is CosineUnitDist row by row,
// to the bit, on both kernel paths, across the kernels' tail lengths — and a
// zero vector on either side is at distance 1.
func TestMetricGatherMatchesDist(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	idxs := []int32{6, 2, 0, 2, 5}
	out := make([]float32, len(idxs))
	for _, mode := range []string{"scalar", "auto"} {
		ForceKernels(t, mode)
		for dim := 1; dim <= 70; dim++ {
			arena := testArena(rng, 7, dim)
			q := randVecOff(rng, dim, 1)
			rowsFrom(arena, dim, dim, 7).CosineUnitGather(q, idxs, out)
			for j, i := range idxs {
				want := CosineUnitDist(q, row(arena, dim, dim, int(i)))
				if math.Float32bits(out[j]) != math.Float32bits(want) {
					t.Fatalf("%s dim %d: CosineUnitGather[%d] = %v, CosineUnitDist = %v", mode, dim, j, out[j], want)
				}
			}
		}
		zero := make([]float32, 8)
		one := Normalize([]float32{1, 1, 1, 1, 1, 1, 1, 1})
		both := rowsFrom(append(append([]float32(nil), zero...), one...), 8, 8, 2)
		both.CosineUnitGather(zero, []int32{0, 1}, out[:2])
		if out[0] != 1 || out[1] != 1 {
			t.Fatalf("%s: cosine distances from a zero query = %v, want [1 1]", mode, out[:2])
		}
		both.CosineUnitGather(one, []int32{0, 1}, out[:2])
		if out[0] != 1 {
			t.Fatalf("%s: cosine distance to a zero row = %v, want 1", mode, out[0])
		}
	}
}

// TestMetricGatherSymmetric: on both kernel paths, the CosineUnitGather
// distance from row a to row b has the bits of the distance from b to a —
// zero rows included. An index caches a link's distance from one end and
// recomputes it from the other when it loads.
func TestMetricGatherSymmetric(t *testing.T) {
	const rows = 12
	rng := rand.New(rand.NewSource(5))
	ab, ba := make([]float32, 1), make([]float32, 1)
	for _, mode := range []string{"scalar", "auto"} {
		ForceKernels(t, mode)
		for _, dim := range []int{1, 7, 19, 64, 259} {
			arena := testArena(rng, rows, dim)
			clear(row(arena, dim, dim, 3))
			s := rowsFrom(arena, dim, dim, rows)
			for a := 0; a < rows; a++ {
				for b := 0; b < rows; b++ {
					s.CosineUnitGather(row(arena, dim, dim, a), []int32{int32(b)}, ab)
					s.CosineUnitGather(row(arena, dim, dim, b), []int32{int32(a)}, ba)
					if math.Float32bits(ab[0]) != math.Float32bits(ba[0]) {
						t.Fatalf("%s dim %d: %d->%d = %v, %d->%d = %v", mode, dim, a, b, ab[0], b, a, ba[0])
					}
				}
			}
		}
	}
}

func TestBatchValidationPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	q := make([]float32, 8)
	arena := make([]float32, 64)
	out := make([]float32, 2)
	mustPanic("stride < dim", func() { DotBatch(q, arena, 7, out) })
	mustPanic("idxs/out mismatch", func() { DotGather(q, arena, 8, []int32{0}, out) })
	mustPanic("row out of range", func() { DotBatch(q, arena, 8, make([]float32, 9)) })

	// The gather form hands raw pointers to assembly on the AVX2 path, so a
	// bad index must be refused in Go first, on either path, wherever in idxs
	// it sits — including where only the look-ahead would have touched it.
	for _, mode := range []string{"scalar", "auto"} {
		ForceKernels(t, mode)
		for _, bad := range [][]int32{{-1, 0}, {0, -1}, {8, 0}, {0, 8}, {math.MinInt32, 0}, {0, math.MaxInt32}} {
			mustPanic("DotGather bad index", func() { DotGather(q, arena, 8, bad, out) })
		}
		// A row that starts inside the arena but does not end inside it.
		mustPanic("DotGather partial row", func() { DotGather(q, arena[:63], 8, []int32{0, 7}, out) })
		mustPanic("DotGather nil idxs", func() { DotGather(q, arena, 8, nil, out) })
		mustPanic("CosineUnitGather idxs/out mismatch", func() { rowsFrom(arena, 8, 8, 8).CosineUnitGather(q, []int32{0, 1, 2}, out) })
		mustPanic("CosineUnitGather query dim", func() { rowsFrom(arena, 8, 8, 8).CosineUnitGather(q[:7], []int32{0, 1}, out) })

	}
}
