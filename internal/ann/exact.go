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
// the tile kernel streams per pair of A rows, which stays in L1 (32 rows of
// dim 256 are 32 KiB, row-major and dimension-major alike). A worker claims
// exactTileA A rows at a time and runs them all against one B block before
// the next, so that block is read from L1 by every row. The A block is layout
// only: the pair set is identical for every tile size.
const exactTileA = 64

// sparseNNZPerDim is the filter's break-even: a row with more than this
// fraction of its coordinates nonzero skips the filter and has every block
// scored exactly, because the filter would cost it more than the tile kernel
// it can save. On a 2-CPU AVX-512 box, BenchmarkMaskAtLeast32 against
// BenchmarkDotTile's rows=64x32, dim 256, in ns per pair (medians of five
// runs):
//
//	nonzeros     16    64   128   192   256 | DotTile
//	avx512      1.0   2.8   5.2   7.7   8.8 |  9.8
//	avx2        1.2   3.4   6.9  11.4  15.3 |  9.8
//	scalar       15    44    79   106   138 |  970
//
// The AVX2 tier meets the tile near 170 nonzeros, two thirds of dim; the
// AVX-512 tier and the twin stay below it at every density. The cutoff sits
// between the two assembly tiers' break-evens. The encoder's embeddings hold
// a median of 26–62 nonzeros (max 98); long records and the centroids of
// large tuples can pass the cutoff.
const sparseNNZPerDim = 0.7

// MutualTopKExact returns the Eq.-1 pair set between the rows of a and b
// under vector.CosineUnitDist,
//
//	{(i, j) | j ∈ topK_b(i) ∧ i ∈ topK_a(j) ∧ dist(i, j) ≤ maxDist},
//
// exactly: one cache-blocked pass over the a×b distance matrix feeds a
// bounded top-K per a-row and per b-column, so each distance is computed
// once and each table is streamed once per block of the other, where a
// per-query scan streams the whole other table once per row and per
// direction. Neighbours at equal distance rank by lower row index.
//
// The pass scores only what can matter. A pair past maxDist can never be
// output, and dropping it cannot promote another pair into a top-K that
// matters: whatever outranks an accepted pair is at least as close, hence
// also within maxDist. So each A row is first held against a 32-row block of
// B by vector.MaskAtLeast32, which walks the row's mask and reads its packed
// values where the table stores them (the encoder's hashed embeddings have a
// few dozen nonzeros of hundreds). Its sums carry a rounding error the tile
// kernel's do not share, so the row is flagged when any sum reaches
// 1 - maxDist - δ, δ bounding both kernels' error at this dimension and these
// row norms (filterThreshold): every pair whose tile distance is within
// maxDist is flagged. Two A rows at a time, a block where either is flagged
// is scored by vector.CosineUnitTile over the rows expanded bit for bit (the
// A rows once per A block, the B block once per A block that needs it), and
// its distances are thresholded exactly as a pass without the filter does;
// an unflagged one holds no pair within maxDist. Tile distances do not
// depend on where in a tile they are computed, and the kept top-K depends
// only on the pairs offered, so the pairs, their order and their distances
// are those of scoring every block. Rows too dense for the filter to pay
// (sparseNNZPerDim) are flagged whole, and a table of them costs what the
// unfiltered pass does, plus each block's expansion.
//
// Pairs carry row indices (A into a, B into b) and come out ordered by A,
// then by rank among A's neighbours. workers (par.Workers: <= 0 means
// GOMAXPROCS) claim the a-rows a tile block at a time; the result does not
// depend on it. While it runs, the pass holds a dimension-major copy of b
// (unless every row of a is too dense to filter), and each worker a dense
// copy of one block of each table. The tables are only read, so a and b may
// share a data arena, and rows.
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
	// Only a row with at most maxNNZ nonzeros runs the filter, and only if
	// one does is b copied dimension-major for it.
	maxNNZ := int(sparseNNZPerDim * float64(dim))
	filters := false
	for i := 0; i < na && !filters; i++ {
		_, vals := a.Row(i)
		filters = len(vals) <= maxNNZ
	}
	var blocksB []float32
	var normB float64
	if filters {
		blocksB, normB = transposeBlocks(b, workers)
	}
	rows := newBestK(na, k)
	// A worker claims blocks of tileA a-rows, whose row bests no other
	// worker touches; its column bests (merged below) and its copies of the
	// tables are its own.
	blocks := (na + tileA - 1) / tileA
	workers = par.Workers(blocks, workers)
	cols, ws := make([]*bestK, workers), make([]*joinWorker, workers)
	for w := range workers {
		cols[w], ws[w] = newBestK(nb, k), newJoinWorker(a, b, tileA)
	}
	par.For(blocks, workers, func(w, blk int) {
		c, f := cols[w], ws[w]
		i0 := blk * tileA
		i1 := min(i0+tileA, na)
		f.load(i0, i1, maxNNZ, maxDist, normB)
		for j0 := 0; j0 < nb; j0 += tileB {
			j1 := min(j0+tileB, nb)
			var blockT []float32
			if blocksB != nil {
				blockT = blocksB[j0*dim : (j0+tileB)*dim]
			}
			// A rows go two at a time, the tile kernel's shape; a run of
			// flagged pairs is scored in one call.
			flagged := func(i int) bool {
				return f.flags(i-i0, blockT) || i+1 < i1 && f.flags(i+1-i0, blockT)
			}
			for i := i0; i < i1; i += 2 {
				if !flagged(i) {
					continue
				}
				ie := i + 2
				for ie < i1 && flagged(ie) {
					ie += 2
				}
				ie = min(ie, i1)
				buf := f.score(i-i0, ie-i0, j0, j1)
				nj := j1 - j0
				for x, d := range buf {
					if d <= maxDist {
						r, j := i+x/nj, j0+x%nj
						rows.offer(r, j, d)
						c.offer(j, r, d)
					}
				}
				i = ie // the pair at ie is unflagged, or past the block
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
// threshold its sums against a B block must reach for the block to be
// scored (-Inf: every block is). The re-check scores flagged cells over
// dense copies, bit for bit, of the block's A rows, each expanded the first
// time a flagged cell needs it, and of one B block, expanded once per A block
// that flags a cell in it.
type joinWorker struct {
	a, b  *vector.SparseRows
	mask  [][]uint32
	vals  [][]float32
	thr   []float32
	i0    int
	dense *vector.Store // rows [0, tileA) the A block's, then the B block's
	hasA  []bool
	hasB  int // the B block dense holds, by its first row, or -1
	dist  vector.TileDist
	buf   []float32
}

func newJoinWorker(a, b *vector.SparseRows, tileA int) *joinWorker {
	const tileB = vector.SparseBlock
	dense := vector.NewStoreWithCap(a.Dim(), tileA+tileB)
	dense.Grow(tileA + tileB)
	return &joinWorker{
		a: a, b: b,
		mask:  make([][]uint32, tileA),
		vals:  make([][]float32, tileA),
		thr:   make([]float32, tileA),
		dense: dense,
		hasA:  make([]bool, tileA),
		dist:  vector.CosineUnitTile(dense, dense),
		buf:   make([]float32, tileA*tileB),
	}
}

// load takes rows [i0, i1) of a as the worker's block, for a join at maxDist
// against rows of norm at most normB. A row with more than maxNNZ nonzeros
// is flagged whole.
func (f *joinWorker) load(i0, i1, maxNNZ int, maxDist float32, normB float64) {
	dim := f.a.Dim()
	f.i0, f.hasB = i0, -1
	clear(f.hasA)
	for r := range i1 - i0 {
		f.mask[r], f.vals[r] = f.a.Row(i0 + r)
		f.thr[r] = float32(math.Inf(-1))
		if len(f.vals[r]) > maxNNZ {
			continue
		}
		// The filter can reject nothing when the error bound would need
		// sums past overflow, or when no sum can fall short of t.
		p := normBound(f.vals[r], dim) * normB
		if t := filterThreshold(maxDist, p, dim); p <= 1e30 && float64(t) > -p*(1+gamma(dim)) {
			f.thr[r] = t
		}
	}
}

// flags reports whether row r of the block may be within the threshold of
// any row of the B block blockT holds dimension-major. The zero rows padding
// a ragged last block flag a row only at thresholds near 1, a zero vector's
// distance, and the re-check never reads them.
func (f *joinWorker) flags(r int, blockT []float32) bool {
	t := f.thr[r]
	if math.IsInf(float64(t), -1) {
		return true
	}
	return vector.MaskAtLeast32(f.mask[r], f.vals[r], blockT, t) != 0
}

// score returns the tile distances of the block's A rows [r0, r1) against
// B rows [j0, j1), row by row, expanding what is not expanded yet.
func (f *joinWorker) score(r0, r1, j0, j1 int) []float32 {
	tileA := len(f.hasA)
	for r := r0; r < r1; r++ {
		if !f.hasA[r] {
			f.a.CopyTo(f.dense.At(r), f.i0+r)
			f.hasA[r] = true
		}
	}
	if f.hasB != j0 {
		for j := j0; j < j1; j++ {
			f.b.CopyTo(f.dense.At(tileA+j-j0), j)
		}
		f.hasB = j0
	}
	buf := f.buf[:(r1-r0)*(j1-j0)]
	f.dist(r0, r1, tileA, tileA+j1-j0, buf)
	return buf
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
// overflows). With s a pair's true dot, the tile kernel's t and the filter's
// f are both within γ_dim·Σ|aᵢbᵢ| ≤ γ_dim·p of s, and fl(1 - t) ≤ maxDist
// implies t ≥ 1 - maxDist - u·(1 + |t|) with |t| ≤ p·(1 + γ_dim). So
// f ≥ 1 - maxDist - δ for δ = 2γ_dim·p + 2u·(1 + p), which also covers
// underflow's absolute error. The float64 arithmetic here is allowed for,
// and the result is rounded down to float32: a pair the tile puts within
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
