package vector

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/arena"
)

// SparseRows is an append-only store of fixed-dimension float32 vectors kept
// as their nonzero coordinates: a shard's entity embeddings, which the
// encoder's signed feature hashing leaves about a quarter full. A coordinate
// is stored iff its bits are not zero (math.Float32bits(x) != 0), so CopyTo
// gives back the appended row bit for bit — −0, NaN payloads and subnormals
// included — and AddTo adds exactly what Add adds: the coordinates it skips
// are +0, and x + (+0) is x for every x an accumulator started at +0 can
// hold.
//
// Storage is three arena.Arena tables: the values and their coordinates
// (uint16, so the dimension is at most MaxSparseDim), element by element in
// chunks of the same size, and one descriptor a row naming its chunk, offset
// and count. A row never straddles a chunk — one that does not fit starts the
// next chunk, leaving less than a row unused — and a chunk holds at least
// dim elements, so any row fits. Rows are never rewritten, so a stored row
// never moves, Frozen is three O(1) snapshots, and no copy-on-write copy
// ever happens. A SparseRows is not safe for concurrent mutation; a frozen
// snapshot may be read from any number of goroutines while its writer goes
// on.
type SparseRows struct {
	dim   int
	shift uint // a values chunk holds 1<<shift elements
	vals  arena.Arena[float32]
	idx   arena.Arena[uint16]
	rows  arena.Arena[rowSpan]
}

// rowSpan locates one row's elements: chunk c, elements [off, off+n).
type rowSpan struct {
	chunk uint32
	off   uint16
	n     uint16
}

// MaxSparseDim is the largest dimension a SparseRows holds: a coordinate is
// a uint16.
const MaxSparseDim = math.MaxUint16

// NewSparseRows returns an empty store for vectors of the given
// dimensionality. Its values chunks hold 16 rows of dim elements, rounded up
// to a power of two and capped at 1<<16 elements, so a chunk's offsets fit
// the descriptor's uint16.
func NewSparseRows(dim int) *SparseRows {
	if dim <= 0 || dim > MaxSparseDim {
		panic(fmt.Sprintf("vector: sparse store dimension must be in [1, %d], got %d", MaxSparseDim, dim))
	}
	shift := uint(min(bits.Len(uint(dim-1))+4, 16))
	return &SparseRows{
		dim:   dim,
		shift: shift,
		vals:  arena.New[float32](1, shift),
		idx:   arena.New[uint16](1, shift),
		rows:  arena.New[rowSpan](1, chunkShift),
	}
}

// Dim reports the vector dimensionality.
func (s *SparseRows) Dim() int { return s.dim }

// Len reports the number of stored rows.
func (s *SparseRows) Len() int { return s.rows.Len() }

// nonzeros counts the coordinates of v the store keeps.
func nonzeros(v []float32) int {
	n := 0
	for _, x := range v {
		if math.Float32bits(x) != 0 {
			n++
		}
	}
	return n
}

// place returns where a row of n elements starts when the elements so far
// end at end: there, or at the next chunk if it does not fit the rest of
// end's chunk.
func (s *SparseRows) place(end, n int) rowSpan {
	size := 1 << s.shift
	if off := end & (size - 1); off+n > size {
		end += size - off
	}
	return rowSpan{chunk: uint32(end >> s.shift), off: uint16(end & (size - 1)), n: uint16(n)}
}

// end is the element just past row r.
func (s *SparseRows) end(r rowSpan) int {
	return int(r.chunk)<<s.shift + int(r.off) + int(r.n)
}

// span returns row r's coordinates and values.
func (s *SparseRows) span(r rowSpan) ([]uint16, []float32) {
	if r.n == 0 {
		return nil, nil
	}
	lo, hi := int(r.off), int(r.off)+int(r.n)
	return s.idx.Spine()[r.chunk][lo:hi:hi], s.vals.Spine()[r.chunk][lo:hi:hi]
}

// store writes v's nonzeros into row r's span.
func (s *SparseRows) store(r rowSpan, v []float32) {
	idx, val := s.span(r)
	j := 0
	for d, x := range v {
		if math.Float32bits(x) != 0 {
			idx[j], val[j] = uint16(d), x
			j++
		}
	}
}

// Append stores v's nonzeros as a new row and returns its index. v must have
// Dim() elements.
func (s *SparseRows) Append(v []float32) int {
	if len(v) != s.dim {
		panic(fmt.Sprintf("vector: sparse store dimension mismatch: row has %d, store wants %d", len(v), s.dim))
	}
	r := s.place(s.vals.Len(), nonzeros(v))
	grow := s.end(r) - s.vals.Len()
	s.vals.Grow(grow)
	s.idx.Grow(grow)
	s.store(r, v)
	i := s.rows.Len()
	s.rows.Grow(1)
	s.rows.At(i)[0] = r
	return i
}

// Load fills an empty store with n rows, each table allocated at its final
// size (arena.GrowExact): never more than the rows' nonzeros and the chunk
// tails they leave. row(i, dst) must write dense row i into dst; Load calls it
// for every row in order, twice over — once to count, once to store.
func (s *SparseRows) Load(n int, row func(i int, dst []float32)) {
	if s.Len() != 0 {
		panic("vector: Load into a non-empty sparse store")
	}
	dst := make([]float32, s.dim)
	s.rows.GrowExact(n)
	end := 0
	for i := range n {
		row(i, dst)
		r := s.place(end, nonzeros(dst))
		s.rows.At(i)[0] = r
		end = s.end(r)
	}
	s.vals.GrowExact(end)
	s.idx.GrowExact(end)
	for i := range n {
		row(i, dst)
		s.store(s.rows.At(i)[0], dst)
	}
}

// Row returns row i's stored coordinates, ascending, and their values. The
// slices alias the store; the caller must not modify them.
func (s *SparseRows) Row(i int) ([]uint16, []float32) {
	if i < 0 || i >= s.Len() {
		panic(fmt.Sprintf("vector: row %d out of range [0, %d)", i, s.Len()))
	}
	return s.span(s.rows.At(i)[0])
}

// CopyTo sets dst, of Dim() elements, to row i: the vector Append stored,
// bit for bit.
func (s *SparseRows) CopyTo(dst []float32, i int) {
	idx, val := s.Row(i)
	clear(dst[:s.dim])
	for k, d := range idx {
		dst[d] = val[k]
	}
}

// AddTo adds row i into dst, of Dim() elements: Add(dst, row) over the row's
// stored coordinates only, the same bits whenever no element of dst is −0
// or a signalling NaN — so always for a sum that starts from +0.
func (s *SparseRows) AddTo(dst []float32, i int) {
	idx, val := s.Row(i)
	dst = dst[:s.dim]
	for k, d := range idx {
		dst[d] += val[k]
	}
}

// Frozen returns a read-only snapshot of the store in O(1). The caller must
// not mutate it.
func (s *SparseRows) Frozen() *SparseRows {
	return &SparseRows{dim: s.dim, shift: s.shift, vals: s.vals.Snapshot(), idx: s.idx.Snapshot(), rows: s.rows.Snapshot()}
}

// Bytes reports the memory the stored rows take: 4 B a value and 2 B a
// coordinate, the chunk tails left by rows that did not fit included, and
// 8 B a row's descriptor. It depends on the rows alone, not on how the store
// grew — a store and its saved and loaded copy report the same — and the
// allocated chunks hold less than one chunk a table more.
func (s *SparseRows) Bytes() int {
	return 6*s.vals.Len() + 8*s.rows.Len()
}

// Offset reports the element of the values and coordinates tables row i
// starts at.
func (s *SparseRows) Offset(i int) int {
	r := s.rows.At(i)[0]
	return int(r.chunk)<<s.shift + int(r.off)
}

// Elems reports the elements the values and coordinates tables hold, the
// chunk tails left by rows that did not fit included.
func (s *SparseRows) Elems() int { return s.vals.Len() }

// Cap reports the allocated capacity of the values and coordinates tables,
// in elements, and of the descriptor table, in rows.
func (s *SparseRows) Cap() (elems, rows int) { return s.vals.Cap(), s.rows.Cap() }

// ChunkElems is the number of elements in one values and coordinates chunk.
func (s *SparseRows) ChunkElems() int { return 1 << s.shift }
