package ann

import (
	"math"

	"repro/internal/par"
	"repro/internal/vector"
)

// Tile shape of the exact join, in rows. The B block is what the register
// kernel streams per pair of A rows, so it is sized to stay in L1 (32 rows
// of dim 256 are 32 KiB); the A block sets how often a B block is re-read
// from the next cache level and the size of the per-worker distance buffer.
// Both are layout only: the pair set is identical for every shape.
const (
	exactTileA = 64
	exactTileB = 32
)

// MutualTopKExact returns the Eq.-1 pair set between the rows of a and b
// under vector.CosineUnitDist,
//
//	{(i, j) | j ∈ topK_b(i) ∧ i ∈ topK_a(j) ∧ dist(i, j) ≤ maxDist},
//
// exactly: one cache-blocked pass over the a×b distance matrix feeds a
// bounded top-K per a-row and per b-column from the same tile, so each
// distance is computed once and each arena is streamed once per block of the
// other, where a per-query scan streams the whole other arena once per row
// and per direction. Neighbours at equal distance rank by lower row index.
//
// Pairs carry row indices (A into a, B into b) and come out ordered by A,
// then by rank among A's neighbours. workers (par.Workers: <= 0 means
// GOMAXPROCS) claim the a-rows a tile block at a time; the result does not
// depend on it.
func MutualTopKExact(a, b *vector.Store, k int, maxDist float32, workers int) []Pair {
	return mutualTopKExact(a, b, k, maxDist, workers, exactTileA, exactTileB)
}

func mutualTopKExact(a, b *vector.Store, k int, maxDist float32, workers, tileA, tileB int) []Pair {
	na, nb := a.Len(), b.Len()
	if k <= 0 || na == 0 || nb == 0 {
		return nil
	}
	dist := vector.CosineUnitTile(a, b)
	rows := newBestK(na, k)
	// A worker claims blocks of tileA a-rows, whose row bests no other
	// worker touches; its column bests (merged below) and tile buffer are
	// its own.
	blocks := (na + tileA - 1) / tileA
	workers = par.Workers(blocks, workers)
	cols, bufs := make([]*bestK, workers), make([][]float32, workers)
	for w := range workers {
		cols[w], bufs[w] = newBestK(nb, k), make([]float32, tileA*tileB)
	}
	par.For(blocks, workers, func(w, blk int) {
		c, buf := cols[w], bufs[w]
		i0 := blk * tileA
		i1 := min(i0+tileA, na)
		for j0 := 0; j0 < nb; j0 += tileB {
			j1 := min(j0+tileB, nb)
			dist(i0, i1, j0, j1, buf)
			nj := j1 - j0
			for i := i0; i < i1; i++ {
				// A pair past maxDist can never be output, and dropping it
				// cannot promote another pair into a top-K that matters:
				// whatever outranks an accepted pair is at least as close,
				// hence also within maxDist. So the threshold filters before
				// the heaps, and almost every distance costs one comparison.
				for j, d := range buf[(i-i0)*nj : (i-i0+1)*nj] {
					if d <= maxDist {
						rows.offer(i, j0+j, d)
						c.offer(j0+j, i, d)
					}
				}
			}
		}
	})

	col := cols[0]
	for _, c := range cols[1:] {
		col.merge(c)
	}
	var pairs []Pair
	for i := 0; i < na; i++ {
		ids, ds := rows.at(i)
		for r, j := range ids {
			if j != noID && col.has(int(j), i) {
				pairs = append(pairs, Pair{A: i, B: int(j), Dist: ds[r]})
			}
		}
	}
	return pairs
}

// bestK holds, for each of n slots, the k best (distance, id) candidates seen
// so far in rank order: ascending distance, ties by ascending id. The kept
// set is a function of the offered multiset alone, not of offer order, which
// is what makes the join independent of tile shape and worker split. Empty
// places hold (+Inf, noID), the key every real candidate outranks.
type bestK struct {
	k    int
	ids  []int32
	dist []float32
}

const noID = math.MaxInt32

func newBestK(n, k int) *bestK {
	t := &bestK{k: k, ids: make([]int32, n*k), dist: make([]float32, n*k)}
	inf := float32(math.Inf(1))
	for x := range t.ids {
		t.ids[x], t.dist[x] = noID, inf
	}
	return t
}

func (t *bestK) at(slot int) ([]int32, []float32) {
	return t.ids[slot*t.k : (slot+1)*t.k], t.dist[slot*t.k : (slot+1)*t.k]
}

// offer inserts (id, d) into slot's ranking if it outranks the current k-th.
func (t *bestK) offer(slot, id int, d float32) {
	ids, ds := t.at(slot)
	outranks := func(x int) bool { return d < ds[x] || (d == ds[x] && int32(id) < ids[x]) }
	x := t.k - 1
	if !outranks(x) {
		return
	}
	for ; x > 0 && outranks(x-1); x-- {
		ids[x], ds[x] = ids[x-1], ds[x-1]
	}
	ids[x], ds[x] = int32(id), d
}

// merge offers every candidate of o (same shape) into t.
func (t *bestK) merge(o *bestK) {
	for x, id := range o.ids {
		if id != noID {
			t.offer(x/t.k, int(id), o.dist[x])
		}
	}
}

func (t *bestK) has(slot, id int) bool {
	ids, _ := t.at(slot)
	for _, v := range ids {
		if int(v) == id {
			return true
		}
	}
	return false
}
