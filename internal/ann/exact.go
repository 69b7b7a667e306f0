package ann

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/par"
	"repro/internal/vector"
)

// Tile shape of the exact join, in rows. B is cut into blocks of
// vector.SparseBlock (32) rows: the filter kernel's lane count, and a block
// that stays in L1 (32 rows of dim 256 are 32 KiB dimension-major). A worker
// claims exactTileA A rows at a time and runs them all against one B block
// before the next, so that block is read from L1 by every row. The A block
// is layout only: the pair set is identical for every tile size.
const exactTileA = 64

// MutualTopKExact returns the Eq.-1 pair set between the rows of a and b
// under vector.CosineUnitDist,
//
//	{(i, j) | j ∈ topK_b(i) ∧ i ∈ topK_a(j) ∧ dist(i, j) ≤ maxDist},
//
// exactly: one cache-blocked pass over the a×b distance matrix feeds a
// vector.TopK per a-row and per b-column, so each distance is computed once
// and each table is streamed once per block of the other, where a per-query
// scan streams the whole other table once per row and per direction.
// Neighbours at equal distance rank by lower row index. The two directions'
// rankings then go through the HNSW leg's Eq.-1 step, mutualPairs.
//
// The pass scores only what can matter. A pair past maxDist can never be
// output, and dropping it cannot promote another pair into a top-K that
// matters: whatever outranks an accepted pair is at least as close, hence
// also within maxDist. So each A row is first held against a 32-row block of
// B by vector.MaskAtLeast32, which walks the row's mask and reads its packed
// values where the table stores them (the encoder's hashed embeddings have a
// few dozen nonzeros of hundreds). Its sums carry a rounding error the
// gather's do not share, so a lane is flagged when its sum reaches
// 1 - maxDist - δ, δ bounding both kernels' error at this dimension and these
// row norms (filterThreshold): every pair whose distance is within maxDist
// is flagged. The flagged lanes of a row, and only those, are scored by
// b.CosineUnitGather against the A row expanded bit for bit (once per A
// block, when it first flags a lane), which gives CosineUnitDist's bits, and
// the distances are thresholded exactly as a pass without the filter does;
// an unflagged lane is no pair within maxDist. A distance does not depend on
// where it is computed, and the kept top-K depends only on the pairs
// offered, so the pairs, their order and their distances are those of
// scoring every pair — and those the HNSW leg (MutualTopK) finds, which
// scores through the same gather.
//
// Pairs carry row indices (A into a, B into b) and come out ordered by A,
// then by rank among A's neighbours. workers (par.Workers: <= 0 means
// GOMAXPROCS) claim the a-rows a tile block at a time; the result does not
// depend on it. While it runs, the pass holds a dimension-major copy of b,
// and each worker a dense copy of its block of A rows. The tables are only
// read, so a and b may share a data arena, and rows.
func MutualTopKExact(a, b *vector.SparseRows, k int, maxDist float32, workers int) []Pair {
	return mutualTopKExact(a, b, k, maxDist, workers, exactTileA)
}

func mutualTopKExact(a, b *vector.SparseRows, k int, maxDist float32, workers, tileA int) []Pair {
	na, nb := a.Len(), b.Len()
	if k <= 0 || na == 0 || nb == 0 {
		return nil
	}
	if a.Dim() != b.Dim() {
		panic(fmt.Sprintf("ann: join of dimension %d against %d", a.Dim(), b.Dim()))
	}
	const tileB = vector.SparseBlock
	dim := a.Dim()
	blocksB, normB := transposeBlocks(b, workers)
	rows := rankings(na, k)
	// A worker claims blocks of tileA a-rows, whose row rankings no other
	// worker touches; its column rankings (merged below) and its copy of
	// the A block are its own.
	blocks := (na + tileA - 1) / tileA
	workers = par.Workers(blocks, workers)
	cols, ws := make([][]vector.TopK, workers), make([]*joinWorker, workers)
	for w := range workers {
		cols[w], ws[w] = rankings(nb, k), newJoinWorker(a, b, tileA)
	}
	par.For(blocks, workers, func(w, blk int) {
		c, f := cols[w], ws[w]
		i0 := blk * tileA
		i1 := min(i0+tileA, na)
		f.load(i0, i1, maxDist, normB)
		for j0 := 0; j0 < nb; j0 += tileB {
			blockT := blocksB[j0*dim : (j0+tileB)*dim]
			// The lanes of the block's rows: a ragged last block's zero
			// padding is never scored.
			rowsIn := uint32(math.MaxUint32) >> (tileB - min(tileB, nb-j0))
			for i := i0; i < i1; i++ {
				lanes := f.flags(i-i0, blockT) & rowsIn
				if lanes == 0 {
					continue
				}
				js, ds := f.score(i-i0, j0, lanes)
				for x, d := range ds {
					if d <= maxDist {
						j := int(js[x])
						rows[i].Push(j, d)
						c[j].Push(i, d)
					}
				}
			}
		}
	})
	for _, c := range cols[1:] {
		pushAll(cols[0], c)
	}
	return mutualPairs(drain(rows), drain(cols[0]), maxDist)
}

// rankings returns n empty rankings of the k best. A TopK keeps the k best
// of what it was offered in (distance, id) order, whatever the offer order,
// which is what makes the join independent of tile shape and worker split.
func rankings(n, k int) []vector.TopK {
	ts := make([]vector.TopK, n)
	for i := range ts {
		ts[i].Reset(k)
	}
	return ts
}

// pushAll drains each ranking of src into the same ranking of dst, which
// then keeps the k best of both rankings' offers: each of those is among the
// k best of its own side.
func pushAll(dst, src []vector.TopK) {
	var buf []vector.Neighbor
	for j := range src {
		buf = src[j].ResultsAppend(buf[:0])
		for _, n := range buf {
			dst[j].Push(n.ID, n.Dist)
		}
	}
}

// drain returns each ranking's neighbours in rank order, emptying it. Most
// rankings of a join are empty, so the rest share one array.
func drain(ts []vector.TopK) [][]vector.Neighbor {
	n := 0
	for i := range ts {
		n += ts[i].Len()
	}
	flat, out := make([]vector.Neighbor, 0, n), make([][]vector.Neighbor, len(ts))
	for i := range ts {
		if ts[i].Len() > 0 {
			at := len(flat)
			flat = ts[i].ResultsAppend(flat)
			out[i] = flat[at:]
		}
	}
	return out
}

// transposeBlocks returns b's rows in dimension-major blocks of
// vector.SparseBlock rows — row j's coordinate d at
// out[(j/32)*32*dim + d*32 + j%32], the last block padded with zero rows —
// scattered from each row's mask and packed values, and an upper bound on
// the largest row norm of b.
func transposeBlocks(b *vector.SparseRows, workers int) ([]float32, float64) {
	const bs = vector.SparseBlock
	dim, nb := b.Dim(), b.Len()
	blocks := (nb + bs - 1) / bs
	out := make([]float32, blocks*bs*dim)
	workers = par.Workers(blocks, workers)
	norms := make([]float64, workers)
	par.For(blocks, workers, func(w, blk int) {
		t := out[blk*bs*dim : (blk+1)*bs*dim]
		for l := range min(bs, nb-blk*bs) {
			mask, vals := b.Row(blk*bs + l)
			k := 0
			for j := 0; j < len(mask); j += 2 {
				for m := uint64(mask[j]) | uint64(mask[j+1])<<32; m != 0; m &= m - 1 {
					t[(j<<5|bits.TrailingZeros64(m))*bs+l] = vals[k]
					k++
				}
			}
			norms[w] = max(norms[w], normBound(vals, dim))
		}
	})
	return out, slices.Max(norms)
}

// joinWorker is one worker's view of its block of A rows. The filter reads
// each row where a stores it — its mask and packed values — against the
// threshold its sums against a B block must reach for a lane to be scored
// (-Inf: every lane is). The gather scores a row's flagged lanes against a
// dense copy of it, bit for bit, expanded the first time it flags a lane.
type joinWorker struct {
	a, b  *vector.SparseRows
	mask  [][]uint32
	vals  [][]float32
	thr   []float32
	i0    int
	dense []float32 // row r of the block at [r*dim, (r+1)*dim)
	hasA  []bool
	idxs  [vector.SparseBlock]int32
	dist  [vector.SparseBlock]float32
}

func newJoinWorker(a, b *vector.SparseRows, tileA int) *joinWorker {
	return &joinWorker{
		a: a, b: b,
		mask:  make([][]uint32, tileA),
		vals:  make([][]float32, tileA),
		thr:   make([]float32, tileA),
		dense: make([]float32, tileA*a.Dim()),
		hasA:  make([]bool, tileA),
	}
}

// load takes rows [i0, i1) of a as the worker's block, for a join at maxDist
// against rows of norm at most normB.
func (f *joinWorker) load(i0, i1 int, maxDist float32, normB float64) {
	dim := f.a.Dim()
	f.i0 = i0
	clear(f.hasA)
	for r := range i1 - i0 {
		f.mask[r], f.vals[r] = f.a.Row(i0 + r)
		// The filter can reject nothing when the error bound would need
		// sums past overflow, or when no sum can fall short of t.
		f.thr[r] = float32(math.Inf(-1))
		p := normBound(f.vals[r], dim) * normB
		if t := filterThreshold(maxDist, p, dim); p <= 1e30 && float64(t) > -p*(1+gamma(dim)) {
			f.thr[r] = t
		}
	}
}

// flags returns the lanes of the B block blockT holds dimension-major whose
// rows row r of the block may be within the threshold of. The zero rows
// padding a ragged last block may be flagged; the caller clears them.
func (f *joinWorker) flags(r int, blockT []float32) uint32 {
	t := f.thr[r]
	if math.IsInf(float64(t), -1) {
		return math.MaxUint32
	}
	return vector.MaskAtLeast32(f.mask[r], f.vals[r], blockT, t)
}

// score returns the B rows j0 + l for each lane l set in lanes, ascending,
// and their distances from row r of the block.
func (f *joinWorker) score(r, j0 int, lanes uint32) ([]int32, []float32) {
	dim := f.a.Dim()
	q := f.dense[r*dim : (r+1)*dim]
	if !f.hasA[r] {
		f.a.CopyTo(q, f.i0+r)
		f.hasA[r] = true
	}
	n := 0
	for ; lanes != 0; lanes &= lanes - 1 {
		f.idxs[n] = int32(j0 + bits.TrailingZeros32(lanes))
		n++
	}
	f.b.CosineUnitGather(q, f.idxs[:n], f.dist[:n])
	return f.idxs[:n], f.dist[:n]
}

// unitRoundoff is float32's unit roundoff u = 2⁻²⁴.
const unitRoundoff = 0x1p-24

// gamma is the inner-product error constant γₙ = n·u/(1 - n·u): a float32
// sum of n products, in any order and with or without fused multiply-adds,
// is within γₙ·Σ|aᵢbᵢ| of the true sum. It is +Inf past n·u = 1/3, far
// beyond any real dimension, so that a finite γₙ is at most 1/2, which
// normBound needs.
func gamma(n int) float64 {
	nu := float64(n) * unitRoundoff
	if nu > 1.0/3 {
		return math.Inf(1)
	}
	return nu / (1 - nu)
}

// normBound is an upper bound on the L2 norm of a row of dimension dim whose
// nonzero values are vals: Dot(vals, vals) is a float32 sum of at most dim
// products, so it is within γ_dim·‖v‖² of ‖v‖² whatever its order, and
// ‖v‖² ≤ Dot(vals, vals)/(1 - γ_dim) ≤ Dot(vals, vals)·(1 + 2γ_dim) for
// γ_dim ≤ 1/2.
func normBound(vals []float32, dim int) float64 {
	return math.Sqrt(float64(vector.Dot(vals, vals)) * (1 + 2*gamma(dim)))
}

// filterThreshold returns the float32 threshold that MaskAtLeast32's sums
// for an A row must reach for any of its pairs to be within maxDist, when
// every pair's norm product is at most p (and p ≤ 1e30, so no partial sum
// overflows). With s a pair's true dot, the gather's t and the filter's
// f are both within γ_dim·Σ|aᵢbᵢ| ≤ γ_dim·p of s, and fl(1 - t) ≤ maxDist
// implies t ≥ 1 - maxDist - u·(1 + |t|) with |t| ≤ p·(1 + γ_dim). So
// f ≥ 1 - maxDist - δ for δ = 2γ_dim·p + 2u·(1 + p), which also covers
// underflow's absolute error. The float64 arithmetic here is allowed for,
// and the result is rounded down to float32: a pair the gather puts within
// maxDist always has f ≥ the threshold.
func filterThreshold(maxDist float32, p float64, dim int) float32 {
	delta := 2*gamma(dim)*p + 2*unitRoundoff*(1+p)
	x := 1 - float64(maxDist) - delta
	x -= 0x1p-50 * (1 + math.Abs(float64(maxDist)) + delta)
	t := float32(x)
	if float64(t) > x {
		t = math.Nextafter32(t, float32(math.Inf(-1)))
	}
	return t
}
