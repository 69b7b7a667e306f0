package ann

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/vector"
)

// naiveMutualTopK is Eq. 1 written down: the full |a|×|b| distance matrix,
// one pair at a time, every row and every column ranked by (distance, index)
// and cut at k, then the pairs that survive both cuts and the threshold.
// O(n² log n), no tiling, no filtering before ranking, no sharing between
// directions — the reference MutualTopKExact must reproduce, order included.
func naiveMutualTopK(a, b *vector.Store, k int, maxDist float32) []Pair {
	na, nb := a.Len(), b.Len()
	if k <= 0 || na == 0 || nb == 0 {
		return nil
	}
	dist := vector.CosineUnitTile(a, b)
	d := make([][]float32, na)
	for i := range d {
		d[i] = make([]float32, nb)
		for j := range d[i] {
			dist(i, i+1, j, j+1, d[i][j:j+1])
		}
	}
	// topK ranks n candidates by (at(x), x) and returns the first k.
	topK := func(n int, at func(x int) float32) []int {
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
		return order[:min(k, n)]
	}
	colTop := make([][]int, nb)
	for j := range colTop {
		colTop[j] = topK(na, func(i int) float32 { return d[i][j] })
	}
	var pairs []Pair
	for i := 0; i < na; i++ {
		for _, j := range topK(nb, func(j int) float32 { return d[i][j] }) {
			if d[i][j] > maxDist {
				continue
			}
			for _, back := range colTop[j] {
				if back == i {
					pairs = append(pairs, Pair{A: i, B: j, Dist: d[i][j]})
				}
			}
		}
	}
	return pairs
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

// thresholdsAround returns maxDist values that sit exactly on, one ulp below
// and one ulp above real pair distances, plus the degenerate ends.
func thresholdsAround(rng *rand.Rand, a, b *vector.Store) []float32 {
	out := []float32{0, 0.35, float32(math.Inf(1))}
	if a.Len() == 0 || b.Len() == 0 {
		return out
	}
	dist := vector.CosineUnitTile(a, b)
	for x := 0; x < 3; x++ {
		var d [1]float32
		i, j := rng.Intn(a.Len()), rng.Intn(b.Len())
		dist(i, i+1, j, j+1, d[:])
		out = append(out, d[0], math.Nextafter32(d[0], -1), math.Nextafter32(d[0], 3))
	}
	return out
}

func TestMutualTopKExactMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(20240926))
	sizes := [][2]int{{0, 5}, {5, 0}, {1, 1}, {1, 9}, {9, 1}, {2, 3}, {33, 70}, {70, 33}, {129, 64}}
	for _, sz := range sizes {
		a, b := tiedSides(rng, sz[0], sz[1], 1+rng.Intn(40))
		for _, k := range []int{1, 2, 3} {
			for _, maxDist := range thresholdsAround(rng, a, b) {
				want := naiveMutualTopK(a, b, k, maxDist)
				for _, tile := range []int{1, 7, 64, max(sz[0], sz[1], 1)} {
					for _, workers := range []int{1, 2, 5} {
						got := mutualTopKExact(a, b, k, maxDist, workers, tile, tile)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%dx%d k=%d maxDist=%v tile=%d workers=%d:\n got %v\nwant %v",
								sz[0], sz[1], k, maxDist, tile, workers, got, want)
						}
					}
				}
				if got := MutualTopKExact(a, b, k, maxDist, 0); !reflect.DeepEqual(got, want) {
					t.Fatalf("%dx%d k=%d maxDist=%v default shape:\n got %v\nwant %v",
						sz[0], sz[1], k, maxDist, got, want)
				}
			}
		}
	}
}

// Ties break on the lower row index in both directions: of identical rows
// only the first of each side pairs up at k=1, and k copies at k.
func TestMutualTopKExactTieBreak(t *testing.T) {
	v := unit(1, 2, 3)
	a := storeOf(3, v, v, v)
	b := storeOf(3, v, v, v, v)
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

func TestBestKKeepsRankOrderWhateverTheOfferOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type cand struct {
		id int
		d  float32
	}
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(4)
		cands := make([]cand, rng.Intn(12))
		for x := range cands {
			cands[x] = cand{id: x, d: float32(rng.Intn(4))} // few values: many ties
		}
		want := append([]cand(nil), cands...)
		sort.Slice(want, func(p, q int) bool {
			if want[p].d != want[q].d {
				return want[p].d < want[q].d
			}
			return want[p].id < want[q].id
		})
		want = want[:min(k, len(want))]

		rng.Shuffle(len(cands), func(p, q int) { cands[p], cands[q] = cands[q], cands[p] })
		whole, left, right := newBestK(1, k), newBestK(1, k), newBestK(1, k)
		for x, c := range cands {
			whole.offer(0, c.id, c.d)
			if x%2 == 0 {
				left.offer(0, c.id, c.d)
			} else {
				right.offer(0, c.id, c.d)
			}
		}
		left.merge(right)
		for name, got := range map[string]*bestK{"offered": whole, "merged": left} {
			ids, ds := got.at(0)
			var have []cand
			for x, id := range ids {
				if id != noID {
					have = append(have, cand{int(id), ds[x]})
				}
			}
			if fmt.Sprint(have) != fmt.Sprint(want) {
				t.Fatalf("trial %d %s: kept %v, want %v", trial, name, have, want)
			}
		}
	}
}
