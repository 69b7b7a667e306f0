package vector

import (
	"fmt"
	"slices"
)

// chunkShift fixes a Chunked store's chunk at 1<<chunkShift rows. A chunk is
// a row count, not a byte size, so a store of small vectors allocates small
// chunks: 4 KiB at dimension 16, 64 KiB at the encoder's 256.
const chunkShift = 6

// ChunkRows is the number of rows in one chunk of a Chunked store, and so
// the bound on its unused capacity: fewer than ChunkRows rows.
const ChunkRows = 1 << chunkShift

// Chunked is an append-only arena of fixed-dimension float32 vectors that
// grows by fixed chunks of ChunkRows rows behind a chunk spine: row i is row
// i&(ChunkRows-1) of chunk i>>chunkShift. It holds the arenas that grow for a
// matcher's lifetime — a shard's entity embeddings and an HNSW index's node
// vectors — where a flat Store would re-allocate the whole arena on growth
// and carry up to a quarter of it as unused tail.
//
// A row once written never moves: growth allocates one zeroed chunk and
// copies nothing, so At slices stay valid for the store's lifetime, and the
// unused capacity is the last chunk's tail, under ChunkRows rows. The one
// exception is a loaded arena (GrowExact), whose last chunk holds exactly its
// rows: the first row grown past them moves that chunk's rows, under
// ChunkRows of them, into a full chunk, once. Frozen clips the spine in O(1)
// and shares every chunk; the writer's later Appends write only rows past the
// frozen length, in the last shared chunk or in new ones, and replace a spine
// entry only in a spine of their own. A Chunked store is not safe for
// concurrent mutation; At and the gathers are safe beside Appends on another
// copy as long as they read frozen rows only.
type Chunked struct {
	dim    int
	n      int
	chunks [][]float32 // ChunkRows*dim floats each (GrowExact's last: fewer); rows past n are zero
}

// NewChunked returns an empty chunked arena for vectors of the given
// dimensionality.
func NewChunked(dim int) *Chunked {
	if dim <= 0 {
		panic(fmt.Sprintf("vector: store dimension must be positive, got %d", dim))
	}
	return &Chunked{dim: dim}
}

// Dim reports the vector dimensionality.
func (s *Chunked) Dim() int { return s.dim }

// Len reports the number of stored vectors.
func (s *Chunked) Len() int { return s.n }

// Cap reports how many rows the allocated chunks hold: Len() rounded up to a
// whole chunk, or Len() itself after GrowExact.
func (s *Chunked) Cap() int {
	c := len(s.chunks) - 1
	if c < 0 {
		return 0
	}
	return c<<chunkShift + len(s.chunks[c])/s.dim
}

// At returns row i as a full-capacity slice into its chunk. The slice is
// three-indexed, so appending to it cannot clobber the next row.
func (s *Chunked) At(i int) []float32 {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("vector: row %d out of range [0, %d)", i, s.n))
	}
	return row(s.chunks[i>>chunkShift], s.dim, s.dim, i&(ChunkRows-1))
}

// Append copies v into a new row and returns its index.
func (s *Chunked) Append(v []float32) int {
	if len(v) != s.dim {
		panic(fmt.Sprintf("vector: store dimension mismatch: row has %d, store wants %d", len(v), s.dim))
	}
	i := s.n
	s.Grow(1)
	copy(s.At(i), v)
	return i
}

// Grow extends the arena by rows zero rows, allocating the chunks they need.
func (s *Chunked) Grow(rows int) {
	s.n += max(rows, 0)
	if c := len(s.chunks) - 1; c >= 0 && s.n > s.Cap() && len(s.chunks[c]) < ChunkRows*s.dim {
		// GrowExact's short last chunk: its rows move to a full chunk, in a
		// spine of the writer's own, since a snapshot may share this one.
		full := make([]float32, ChunkRows*s.dim)
		copy(full, s.chunks[c])
		s.chunks = append(s.chunks[:c:c], full)
	}
	for len(s.chunks)<<chunkShift < s.n {
		s.chunks = append(s.chunks, make([]float32, ChunkRows*s.dim))
	}
}

// GrowExact sizes an empty arena to rows zero rows for a loader, which fills
// it from bytes it has already checked: full chunks, and a last one that
// holds exactly the rows left, so the allocation is never larger than what
// fills it. Growing past them later moves that last chunk's rows into a full
// chunk, once.
func (s *Chunked) GrowExact(rows int) {
	if s.n != 0 {
		panic("vector: GrowExact on a non-empty store")
	}
	for s.n < rows {
		take := min(rows-s.n, ChunkRows)
		s.chunks = append(s.chunks, make([]float32, take*s.dim))
		s.n += take
	}
}

// Chunks reports the number of allocated chunks.
func (s *Chunked) Chunks() int { return len(s.chunks) }

// Chunk returns chunk c cut to the rows below Len(), row-major: a serializer
// writes the arena, or fills a grown one, as these blocks in chunk order.
func (s *Chunked) Chunk(c int) []float32 {
	return s.chunks[c][:min(s.n-c<<chunkShift, ChunkRows)*s.dim]
}

// Frozen returns a read-only snapshot of the store in O(1): its length and a
// clipped copy of the spine header, sharing every chunk. Appends on the
// original write only rows the snapshot cannot read. The caller must not
// mutate the snapshot.
func (s *Chunked) Frozen() *Chunked {
	return &Chunked{dim: s.dim, n: s.n, chunks: slices.Clip(s.chunks)}
}

// DotGather sets out[j] = Dot(q, row idxs[j]) for j in [0, len(out)): the
// gather kernel over the chunk spine, bit-identical to the single-pair call
// on the active kernel path. q must have the store's dimensionality and may
// alias one of its rows.
func (s *Chunked) DotGather(q []float32, idxs []int32, out []float32) {
	if len(q) != s.dim || len(idxs) != len(out) {
		panic(fmt.Sprintf("vector: gather of a dim-%d query, %d idxs, %d outs over a dim-%d store", len(q), len(idxs), len(out), s.dim))
	}
	for _, i := range idxs {
		if i < 0 || int(i) >= s.n {
			panic(fmt.Sprintf("vector: gather row %d out of range [0, %d)", i, s.n))
		}
	}
	dotGather(q, s.chunks, chunkShift, s.dim, idxs, out)
}

// CosineUnitGather sets out[j] to CosineUnitDist(q, row idxs[j]), as the
// package-level CosineUnitGather does over a flat arena.
func (s *Chunked) CosineUnitGather(q []float32, idxs []int32, out []float32) {
	s.DotGather(q, idxs, out)
	for j := range out {
		out[j] = 1 - out[j]
	}
}
