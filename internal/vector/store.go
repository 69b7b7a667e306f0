package vector

import "fmt"

// Store is a contiguous arena of fixed-dimension float32 vectors: one flat
// []float32 with stride Dim, instead of one heap allocation per vector. It
// holds the dense rows a kernel reads as plain strided memory — an ingest
// batch plan's embeddings — so sequential scans are cache-linear and
// per-vector GC pressure is zero. Stored embeddings are bitmask rows in a
// SparseRows store instead (sparserows.go): the batch pipeline's entity rows
// and merged tables, a shard's entity embeddings and its HNSW index's node
// vectors.
//
// Rows returned by At alias the arena; they stay valid across Append/Grow in
// value but not in identity (growth may move the backing array), so callers
// must not retain At slices across mutations. A Store is not safe for
// concurrent mutation; concurrent At reads are safe once writes stop.
type Store struct {
	dim  int
	data []float32
}

// NewStore returns an empty arena for vectors of the given dimensionality.
func NewStore(dim int) *Store {
	if dim <= 0 {
		panic(fmt.Sprintf("vector: store dimension must be positive, got %d", dim))
	}
	return &Store{dim: dim}
}

// NewStoreWithCap returns an empty arena with capacity preallocated for rows
// vectors, so a build of known size never reallocates.
func NewStoreWithCap(dim, rows int) *Store {
	s := NewStore(dim)
	if rows > 0 {
		s.data = make([]float32, 0, rows*dim)
	}
	return s
}

// Dim reports the vector dimensionality.
func (s *Store) Dim() int { return s.dim }

// Len reports the number of stored vectors.
func (s *Store) Len() int { return len(s.data) / s.dim }

// At returns row i as a full-capacity slice into the arena. The slice is
// three-indexed, so appending to it cannot clobber the next row.
func (s *Store) At(i int) []float32 {
	d := s.dim
	return s.data[i*d : (i+1)*d : (i+1)*d]
}

// Append copies v into a new row and returns its index.
func (s *Store) Append(v []float32) int {
	if len(v) != s.dim {
		panic(fmt.Sprintf("vector: store dimension mismatch: row has %d, store wants %d", len(v), s.dim))
	}
	i := s.Len()
	s.data = append(s.data, v...)
	return i
}

// Grow extends the arena by rows zero rows.
func (s *Store) Grow(rows int) {
	if rows <= 0 {
		return
	}
	s.data = append(s.data, make([]float32, rows*s.dim)...)
}

// CopyTo copies row i into dst.
func (s *Store) CopyTo(dst []float32, i int) { copy(dst, s.At(i)) }

// AddTo adds row i into dst.
func (s *Store) AddTo(dst []float32, i int) { Add(dst, s.At(i)) }

// SetRow copies v over row i.
func (s *Store) SetRow(i int, v []float32) {
	copy(s.At(i), v)
}

// Raw returns the backing arena: Len()*Dim() float32s, row-major, for the
// flat kernels (DotBatch, DotGather); callers must not
// resize it.
func (s *Store) Raw() []float32 { return s.data }
