package vector

import "fmt"

// Store is a contiguous arena of fixed-dimension float32 vectors: one flat
// []float32 with stride Dim, instead of one heap allocation per vector.
// Every layer of the pipeline that used to hold [][]float32 — embeddings,
// merge centroids, HNSW-stored vectors, matcher state — holds a Store, so
// sequential scans are cache-linear, per-vector GC pressure is zero, and
// serializers can write the whole arena as a single block.
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

// StoreOver returns a Store that adopts data — rows of dim float32s, row
// major — as its arena without copying: how a loader that filled an exactly
// sized slice in one bulk read hands it over. len(data) must be a multiple
// of dim, and the caller must not keep using data.
func StoreOver(dim int, data []float32) *Store {
	s := NewStore(dim)
	if len(data)%dim != 0 {
		panic(fmt.Sprintf("vector: %d floats are not whole rows of dimension %d", len(data), dim))
	}
	s.data = data
	return s
}

// StoreFromRows copies rows into a fresh arena. Rows must all have length
// dim.
func StoreFromRows(dim int, rows [][]float32) *Store {
	s := NewStoreWithCap(dim, len(rows))
	for _, v := range rows {
		s.Append(v)
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

// AppendZero appends a zero row and returns its index. Writers fill it via
// At, which is how batch encoders write embeddings straight into the arena.
func (s *Store) AppendZero() int {
	i := s.Len()
	s.data = append(s.data, make([]float32, s.dim)...)
	return i
}

// Grow extends the arena by rows zero rows.
func (s *Store) Grow(rows int) {
	if rows <= 0 {
		return
	}
	s.data = append(s.data, make([]float32, rows*s.dim)...)
}

// SetRow copies v over row i.
func (s *Store) SetRow(i int, v []float32) {
	copy(s.At(i), v)
}

// Raw returns the backing arena: Len()*Dim() float32s, row-major. Serializers
// write and read it as one block; callers must not resize it.
func (s *Store) Raw() []float32 { return s.data }

// Frozen returns a read-only snapshot of the store in O(1): a new Store
// clipped at the current row count, sharing the backing array. Concurrent
// Appends on the original never touch memory the snapshot can read, as long
// as the original's rows are only appended, never overwritten — the
// append-only contract stated on multiem's shardView. The caller must not
// mutate the snapshot.
func (s *Store) Frozen() *Store { return s.Slice(0, s.Len()) }

// Slice returns rows [lo, hi) as a Store of their own that shares the backing
// array, under Frozen's contract: the window is read-only and stays valid
// while the original only appends. The merging phase hands each source
// table its rows of the pipeline's entity arena this way, without a copy.
func (s *Store) Slice(lo, hi int) *Store {
	return &Store{dim: s.dim, data: s.data[lo*s.dim : hi*s.dim : hi*s.dim]}
}
