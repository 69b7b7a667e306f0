package ann

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/vector"
)

// TestMain fails a run that ends on another kernel path than it began on.
func TestMain(m *testing.M) { os.Exit(vector.KernelsRestored(m.Run)) }

// naiveJoin is Eq. 1 written down: the full |a|×|b| distance matrix, one
// vector.CosineUnitDist at a time, every row and every column ranked by (distance, index),
// and for each k and threshold the pairs that survive both cuts at k and the
// threshold. O(n² log n), no tiling, no filtering before ranking, no sharing
// between directions — the reference MutualTopKExact must reproduce, order
// included. The rankings are taken once, so one naiveJoin answers every k
// and threshold of a pair of tables.
func naiveJoin(a, b *vector.Store) func(k int, maxDist float32) []Pair {
	na, nb := a.Len(), b.Len()
	if na == 0 || nb == 0 {
		return func(int, float32) []Pair { return nil }
	}
	d := make([][]float32, na)
	for i := range d {
		d[i] = make([]float32, nb)
		for j := range d[i] {
			d[i][j] = vector.CosineUnitDist(a.At(i), b.At(j))
		}
	}
	// rank orders n candidates by (at(x), x).
	rank := func(n int, at func(x int) float32) []int {
		order := make([]int, n)
		for x := range order {
			order[x] = x
		}
		sort.Slice(order, func(p, q int) bool {
			dp, dq := at(order[p]), at(order[q])
			if dp != dq {
				return dp < dq
			}
			return order[p] < order[q]
		})
		return order
	}
	rowRank, colRank := make([][]int, na), make([][]int, nb)
	for i := range rowRank {
		rowRank[i] = rank(nb, func(j int) float32 { return d[i][j] })
	}
	for j := range colRank {
		colRank[j] = rank(na, func(i int) float32 { return d[i][j] })
	}
	return func(k int, maxDist float32) []Pair {
		if k <= 0 {
			return nil
		}
		var pairs []Pair
		for i := 0; i < na; i++ {
			for _, j := range rowRank[i][:min(k, nb)] {
				if d[i][j] > maxDist {
					continue
				}
				for _, back := range colRank[j][:min(k, na)] {
					if back == i {
						pairs = append(pairs, Pair{A: i, B: j, Dist: d[i][j]})
					}
				}
			}
		}
		return pairs
	}
}

// tiedSides builds two tables full of ties: random unit vectors, rows
// duplicated inside a table and across the two, and (for the cosine
// distance's zero-vector rule) the odd all-zero row.
func tiedSides(rng *rand.Rand, na, nb, dim int) (*vector.Store, *vector.Store) {
	a, b := randomSide(rng, na, dim), randomSide(rng, nb, dim)
	for x := 0; x < (na+nb)/3; x++ {
		src, dst := a, b
		if rng.Intn(2) == 0 {
			src = b
		}
		if rng.Intn(2) == 0 {
			dst = a
		}
		if src.Len() == 0 || dst.Len() == 0 {
			continue
		}
		dst.SetRow(rng.Intn(dst.Len()), src.At(rng.Intn(src.Len())))
	}
	if na > 3 {
		a.SetRow(rng.Intn(na), make([]float32, dim))
	}
	return a, b
}

// hashedSides builds two tables like the encoder's hashed n-gram embeddings:
// each row sums signed hits of weight 1–3 on 5–90 % of the coordinates,
// normalized and then scaled by scale, and about one of its zero coordinates
// in eight is −0, which a bitmask row stores as a value. Some rows are
// copies of others, in their table and across, and half of the copies take
// one more hit, so there are ties and pairs at every distance. Each table of
// three rows or more also gets an all-zero row and a fully dense one.
func hashedSides(rng *rand.Rand, na, nb, dim int, scale float32) (*vector.Store, *vector.Store) {
	row := func(nnz int) []float32 {
		v := make([]float32, dim)
		for _, d := range rng.Perm(dim)[:nnz] {
			v[d] = float32(rng.Intn(3) + 1)
			if rng.Intn(2) == 0 {
				v[d] = -v[d]
			}
		}
		return v
	}
	negZero := float32(math.Copysign(0, -1))
	finish := func(v []float32) []float32 {
		vector.Normalize(v)
		vector.Scale(v, scale)
		for d, x := range v {
			if x == 0 && rng.Intn(8) == 0 {
				v[d] = negZero
			}
		}
		return v
	}
	side := func(n int) *vector.Store {
		s := vector.NewStoreWithCap(dim, n)
		for range n {
			s.Append(finish(row(max(1, int((0.05+0.85*rng.Float64())*float64(dim))))))
		}
		return s
	}
	a, b := side(na), side(nb)
	for x := 0; x < (na+nb)/3; x++ {
		src, dst := a, b
		if rng.Intn(2) == 0 {
			src = b
		}
		if rng.Intn(2) == 0 {
			dst = a
		}
		v := append([]float32(nil), src.At(rng.Intn(src.Len()))...)
		if rng.Intn(2) == 0 {
			v[rng.Intn(dim)] += scale
			finish(v)
		}
		dst.SetRow(rng.Intn(dst.Len()), v)
	}
	for _, s := range []*vector.Store{a, b} {
		if s.Len() > 2 {
			s.SetRow(0, make([]float32, dim))
			s.SetRow(s.Len()-1, finish(row(dim)))
		}
	}
	return a, b
}

// thresholdsAround returns maxDist values that sit exactly on, one ulp below
// and one ulp above real pair distances — random pairs, and pairs the
// unthresholded join outputs, which the threshold then decides — plus fixed
// values from no pair to every pair.
func thresholdsAround(rng *rand.Rand, a, b *vector.Store, naive func(int, float32) []Pair) []float32 {
	out := []float32{0, 0.35, 0.5, 1, 2, float32(math.Inf(1))}
	if a.Len() == 0 || b.Len() == 0 {
		return out
	}
	var ds []float32
	for x := 0; x < 3; x++ {
		ds = append(ds, vector.CosineUnitDist(a.At(rng.Intn(a.Len())), b.At(rng.Intn(b.Len()))))
	}
	all := naive(1, float32(math.Inf(1)))
	for x := 0; x < 3; x++ {
		ds = append(ds, all[rng.Intn(len(all))].Dist)
	}
	for _, d := range ds {
		out = append(out, d, math.Nextafter32(d, float32(math.Inf(-1))), math.Nextafter32(d, float32(math.Inf(1))))
	}
	return out
}

// joinShape is one A tile size and worker count to run the join with.
type joinShape struct{ tile, workers int }

// sharedRows packs the rows of a and of b as bitmask rows on one data
// arena: b's table shares the words of a's row wherever a row of b is a row
// of a bit for bit (the sides copy rows across), so the join reads one table
// whose rows alias the other's.
func sharedRows(a, b *vector.Store) (*vector.SparseRows, *vector.SparseRows) {
	ra := rowsOf(a)
	rb := vector.NewSparseRowsOn(ra.Data())
	at := make(map[string]int, a.Len())
	bitsOf := func(v []float32) string {
		out := make([]byte, 0, 4*len(v))
		for _, x := range v {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(x))
		}
		return string(out)
	}
	for i := range a.Len() {
		at[bitsOf(a.At(i))] = i
	}
	for j := range b.Len() {
		if i, ok := at[bitsOf(b.At(j))]; ok {
			rb.AppendRef(ra.Ref(i))
		} else {
			rb.Append(b.At(j))
		}
	}
	return ra, rb
}

// checkExactJoin holds mutualTopKExact, over a and b as bitmask rows that
// share a data arena (sharedRows), to the naive reference over the dense
// rows, for K 1–3, every threshold thresholdsAround gives and each shape,
// and MutualTopKExact at its default shape.
func checkExactJoin(t *testing.T, rng *rand.Rand, name string, a, b *vector.Store, shapes []joinShape) {
	t.Helper()
	naive := naiveJoin(a, b)
	ra, rb := sharedRows(a, b)
	for _, k := range []int{1, 2, 3} {
		for _, maxDist := range thresholdsAround(rng, a, b, naive) {
			want := naive(k, maxDist)
			for _, sh := range shapes {
				if got := mutualTopKExact(ra, rb, k, maxDist, sh.workers, sh.tile); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s %dx%d dim %d k=%d maxDist=%v tile=%d workers=%d:\n got %v\nwant %v",
						vector.Kernels(), name, a.Len(), b.Len(), a.Dim(), k, maxDist, sh.tile, sh.workers, got, want)
				}
			}
			if got := MutualTopKExact(ra, rb, k, maxDist, 0); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s %dx%d dim %d k=%d maxDist=%v default shape:\n got %v\nwant %v",
					vector.Kernels(), name, a.Len(), b.Len(), a.Dim(), k, maxDist, got, want)
			}
		}
	}
}

// The join must return the naive reference's pairs, order and distance bits
// included, on every kernel path: on dense tables full of ties, at every
// tile size and worker count, and on hashed-embedding tables — where the
// mask-walk filter decides which pairs are scored — of every dimension from
// 1 to 40 and of 256 and 1024, at unit scale and scaled by 1e-3 and by 7,
// with −0 coordinates, all-zero rows and fully dense rows. Each pair of
// tables is joined as bitmask rows on one data arena, B's table sharing the
// rows it copied from A's.
func TestMutualTopKExactMatchesNaive(t *testing.T) {
	sizes := [][2]int{{0, 5}, {5, 0}, {1, 1}, {1, 9}, {9, 1}, {2, 3}, {33, 70}, {70, 33}, {129, 64}}
	dims := []int{256, 1024}
	for d := 1; d <= 40; d++ {
		dims = append(dims, d)
	}
	for _, mode := range []string{"scalar", "avx2", "avx512"} {
		t.Run(mode, func(t *testing.T) {
			vector.ForceKernels(t, mode)
			rng := rand.New(rand.NewSource(20240926))
			for _, sz := range sizes {
				a, b := tiedSides(rng, sz[0], sz[1], 1+rng.Intn(40))
				var shapes []joinShape
				for _, tile := range []int{1, 7, 64, max(sz[0], sz[1], 1)} {
					for _, workers := range []int{1, 2, 5} {
						shapes = append(shapes, joinShape{tile, workers})
					}
				}
				checkExactJoin(t, rng, "tied", a, b, shapes)
			}
			for x, dim := range dims {
				sz := sizes[len(sizes)-1-x%(len(sizes)-2)] // 129×64 at dim 256, 70×33 at 1024, ...
				scale := []float32{1, 1e-3, 7}[x%3]
				a, b := hashedSides(rng, sz[0], sz[1], dim, scale)
				shapes := []joinShape{{7, 1}, {max(sz[0], sz[1]), 2}, {7, 5}}
				checkExactJoin(t, rng, fmt.Sprintf("hashed x%v", scale), a, b, shapes)
			}
		})
	}
}

// Ties break on the lower row index in both directions: of identical rows
// only the first of each side pairs up at k=1, and k copies at k.
func TestMutualTopKExactTieBreak(t *testing.T) {
	v := unit(1, 2, 3)
	a := rowsOf(storeOf(3, v, v, v))
	b := rowsOf(storeOf(3, v, v, v, v))
	for k := 1; k <= 3; k++ {
		got := MutualTopKExact(a, b, k, 0.5, 0)
		var want []Pair
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				want = append(want, Pair{A: i, B: j, Dist: got[0].Dist})
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: got %v, want %v", k, got, want)
		}
	}
}

// The join's rankings keep the k best offers in (distance, row) order,
// whatever order they come in and however the workers split them: a
// worker's column rankings, pushed again into another's (pushAll), end as
// if that one ranking had been offered everything.
func TestBestKKeepsRankOrderWhateverTheOfferOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(4)
		cands := make([]vector.Neighbor, rng.Intn(12))
		for x := range cands {
			cands[x] = vector.Neighbor{ID: x, Dist: float32(rng.Intn(4))} // few values: many ties
		}
		want := slices.Clone(cands)
		sort.SliceStable(want, func(p, q int) bool { return want[p].Dist < want[q].Dist })
		want = want[:min(k, len(want))]

		rng.Shuffle(len(cands), func(p, q int) { cands[p], cands[q] = cands[q], cands[p] })
		workers := 1 + rng.Intn(3)
		whole, split := rankings(1, k), make([][]vector.TopK, workers)
		for w := range split {
			split[w] = rankings(1, k)
		}
		for _, c := range cands {
			whole[0].Push(c.ID, c.Dist)
			split[rng.Intn(workers)][0].Push(c.ID, c.Dist)
		}
		for _, s := range split[1:] {
			pushAll(split[0], s)
		}
		for name, got := range map[string][]vector.TopK{"offered": whole, "merged": split[0]} {
			if have := drain(got)[0]; fmt.Sprint(have) != fmt.Sprint(want) {
				t.Fatalf("trial %d %s (%d workers): kept %v, want %v", trial, name, workers, have, want)
			}
		}
	}
}
