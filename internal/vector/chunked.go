package vector

import (
	"fmt"

	"repro/internal/arena"
)

// chunkShift fixes a Chunked store's chunk at 1<<chunkShift rows. A chunk is
// a row count, not a byte size, so a store of small vectors allocates small
// chunks: 4 KiB at dimension 16, 64 KiB at the encoder's 256.
const chunkShift = 6

// ChunkRows is the number of rows in one chunk of a Chunked store, and so
// the bound on its unused capacity: fewer than ChunkRows rows.
const ChunkRows = 1 << chunkShift

// Chunked is an append-only arena of fixed-dimension float32 vectors in
// chunks of ChunkRows rows (arena.Arena, whose rows never move). It holds an
// HNSW index's node vectors, which grow for a matcher's lifetime: a flat
// Store would re-allocate the whole arena on growth and carry up to a quarter
// of it as unused tail. (A shard's entity embeddings, which only the
// centroid sums read, keep their nonzeros alone: SparseRows.)
//
// Frozen snapshots the store in O(1), sharing every chunk; the writer's later
// Appends write only rows the snapshot cannot read. A Chunked store is not
// safe for concurrent mutation; At and the gathers are safe beside Appends on
// another copy as long as they read frozen rows only.
type Chunked struct {
	arena.Arena[float32]
}

// NewChunked returns an empty chunked arena for vectors of the given
// dimensionality.
func NewChunked(dim int) *Chunked {
	if dim <= 0 {
		panic(fmt.Sprintf("vector: store dimension must be positive, got %d", dim))
	}
	return &Chunked{arena.New[float32](dim, chunkShift)}
}

// Dim reports the vector dimensionality.
func (s *Chunked) Dim() int { return s.Width() }

// At returns row i as a full-capacity slice into its chunk. The slice is
// three-indexed, so appending to it cannot clobber the next row.
func (s *Chunked) At(i int) []float32 {
	if i < 0 || i >= s.Len() {
		panic(fmt.Sprintf("vector: row %d out of range [0, %d)", i, s.Len()))
	}
	r := s.Arena.At(i)
	return r[:len(r):len(r)]
}

// Append copies v into a new row and returns its index.
func (s *Chunked) Append(v []float32) int {
	if len(v) != s.Dim() {
		panic(fmt.Sprintf("vector: store dimension mismatch: row has %d, store wants %d", len(v), s.Dim()))
	}
	return s.Arena.Append(v)
}

// Frozen returns a read-only snapshot of the store in O(1). The caller must
// not mutate it.
func (s *Chunked) Frozen() *Chunked {
	return &Chunked{s.Snapshot()}
}

// DotGather sets out[j] = Dot(q, row idxs[j]) for j in [0, len(out)): the
// gather kernel over the chunk spine, bit-identical to the single-pair call
// on the active kernel path. q must have the store's dimensionality and may
// alias one of its rows.
func (s *Chunked) DotGather(q []float32, idxs []int32, out []float32) {
	if len(q) != s.Dim() || len(idxs) != len(out) {
		panic(fmt.Sprintf("vector: gather of a dim-%d query, %d idxs, %d outs over a dim-%d store", len(q), len(idxs), len(out), s.Dim()))
	}
	for _, i := range idxs {
		if i < 0 || int(i) >= s.Len() {
			panic(fmt.Sprintf("vector: gather row %d out of range [0, %d)", i, s.Len()))
		}
	}
	dotGather(q, s.Spine(), chunkShift, s.Dim(), idxs, out)
}

// CosineUnitGather sets out[j] to CosineUnitDist(q, row idxs[j]), as the
// package-level CosineUnitGather does over a flat arena.
func (s *Chunked) CosineUnitGather(q []float32, idxs []int32, out []float32) {
	s.DotGather(q, idxs, out)
	for j := range out {
		out[j] = 1 - out[j]
	}
}
