package vector

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/arena"
	"repro/internal/binio"
)

// SparseRows is an append-only table of fixed-dimension float32 vectors kept
// as bitmask rows: a shard's entity embeddings, which the encoder's signed
// feature hashing leaves about a quarter full, and an HNSW index's node
// vectors, their centroids, about a third full. A row is ceil(dim/64) 64-bit
// words of mask — bit c set iff coordinate c's bits are not zero
// (math.Float32bits(x) != 0) — then the values of the set coordinates,
// packed in coordinate order, then an 8 B descriptor: dim/8 + 4·nonzeros + 8
// bytes at a dim that is a multiple of 64. So CopyTo gives back the appended
// row bit for bit — −0, NaN payloads and subnormals included — AddTo adds
// exactly what Add adds (the coordinates it skips are +0, and x + (+0) is x
// for every x an accumulator started at +0 can hold), and the gather kernels
// expand a row to exactly the dense row's bits.
//
// Storage is in two parts. The rows' words (masks and value bits, uint32
// each) live in a data arena, a RowData, which any number of tables may
// share; the table itself is one arena.Arena of descriptors, one a row: the
// word its row starts at and a bit saying whether it holds an Inf or a NaN.
// A row Append stores is the table's own; one AppendShared or AppendRef
// makes of another table's row on the same data arena shares that row's
// words: a shard's index node for a one-member tuple is its member's entity
// row, and a source table of the batch pipeline's merging phase is a window
// of its entity rows. Rows are never rewritten, so a stored row never moves,
// Frozen is O(1), and no copy-on-write copy ever happens. A SparseRows is not safe for concurrent
// mutation, nor are two tables that share a data arena; a frozen snapshot
// may be read from any number of goroutines while its writer goes on.
type SparseRows struct {
	d    *RowData
	rows arena.Arena[uint64] // the word each row starts at, | nonFinite
	own  int                 // the words of the rows Append and Load stored
}

// RowData is the data arena under one or more SparseRows tables: their rows'
// mask and value words in chunks of 1<<shift words. A row never straddles a
// chunk — one that does not fit starts the next chunk, leaving less than a
// row unused — and a chunk holds at least a full row, so any row fits.
type RowData struct {
	dim   int
	words int  // a row's mask, in uint32 words: 2·ceil(dim/64)
	shift uint // a chunk holds 1<<shift words
	data  arena.Arena[uint32]
	row   []uint32 // Append's scratch: a row packed before it is placed
}

// nonFinite marks a descriptor whose row holds an Inf or a NaN, which the
// portable gather must not skip (dotGatherTwin).
const nonFinite = 1 << 63

// NewRowData returns an empty data arena for vectors of the given
// dimensionality. Its chunks hold 16 full rows, rounded up to a power of two
// and capped at 1<<16 words where a full row fits in fewer.
func NewRowData(dim int) *RowData {
	if dim <= 0 {
		panic(fmt.Sprintf("vector: sparse store dimension must be positive, got %d", dim))
	}
	words := 2 * ((dim + 63) / 64)
	full := uint(bits.Len(uint(words + dim - 1)))
	shift := max(full, min(full+4, 16))
	return &RowData{dim: dim, words: words, shift: shift, data: arena.New[uint32](1, shift)}
}

// NewSparseRows returns an empty table for vectors of the given
// dimensionality, on a data arena of its own.
func NewSparseRows(dim int) *SparseRows { return NewSparseRowsOn(NewRowData(dim)) }

// NewSparseRowsOn returns an empty table whose rows are stored in d.
func NewSparseRowsOn(d *RowData) *SparseRows {
	return &SparseRows{d: d, rows: arena.New[uint64](1, descShift)}
}

// Dim reports the vector dimensionality.
func (d *RowData) Dim() int { return d.dim }

// Frozen returns a read-only snapshot of the arena in O(1), for the frozen
// tables FrozenOn makes over it. The caller must not mutate it.
func (d *RowData) Frozen() *RowData {
	return &RowData{dim: d.dim, words: d.words, shift: d.shift, data: d.data.Snapshot()}
}

// Elems reports the words the arena holds, the chunk tails left by rows that
// did not fit included.
func (d *RowData) Elems() int { return d.data.Len() }

// Cap reports the words the allocated chunks hold.
func (d *RowData) Cap() int { return d.data.Cap() }

// ChunkElems is the number of words in one chunk.
func (d *RowData) ChunkElems() int { return 1 << d.shift }

// Dim reports the vector dimensionality.
func (s *SparseRows) Dim() int { return s.d.dim }

// Len reports the number of stored rows.
func (s *SparseRows) Len() int { return s.rows.Len() }

// Data returns the data arena the table's rows are stored in.
func (s *SparseRows) Data() *RowData { return s.d }

// place returns the word a row of n words starts at when the words so far
// end at end: there, or at the next chunk if it does not fit the rest of
// end's chunk.
func (d *RowData) place(end, n int) int {
	size := 1 << d.shift
	if off := end & (size - 1); off+n > size {
		end += size - off
	}
	return end
}

// desc returns row i's descriptor. It panics on a row out of range.
func (s *SparseRows) desc(i int) uint64 {
	if i < 0 || i >= s.Len() {
		panic(fmt.Sprintf("vector: row %d out of range [0, %d)", i, s.Len()))
	}
	return s.rows.Spine()[i>>descShift][i&(DescChunkRows-1)]
}

// words returns row i's words: its mask, then its values.
func (s *SparseRows) words(i int) []uint32 { return s.d.rowOf(s.desc(i)) }

// rowOf returns the words of the row desc describes.
func (d *RowData) rowOf(desc uint64) []uint32 {
	w := d.descWords(desc)
	n := d.size(w)
	return w[:n:n]
}

// size is the number of words of the row whose mask w starts with: the mask,
// then a value for each bit set in it.
func (d *RowData) size(w []uint32) int {
	n := d.words
	for _, m := range w[:d.words] {
		n += bits.OnesCount32(m)
	}
	return n
}

// descWords returns the words from the row desc describes to its chunk's
// end.
func (d *RowData) descWords(desc uint64) []uint32 {
	at := desc &^ nonFinite
	return d.data.Spine()[at>>d.shift][at&(1<<d.shift-1):]
}

// descOf is the descriptor of row w stored at word at.
func (d *RowData) descOf(at int, w []uint32) uint64 {
	if allFinite(floats(w[d.words:])) {
		return uint64(at)
	}
	return uint64(at) | nonFinite
}

// pack writes v, of Dim() elements, as a row into w, which has room for its
// mask and Dim() values, and returns the row's words: its mask, then the
// bits of its nonzeros in coordinate order. Each coordinate's bits are
// written at the fill point, which moves past them only if they are not 0,
// with no branch on the value: at the encoder's densities a branch would
// mispredict about one coordinate in four.
func (d *RowData) pack(w []uint32, v []float32) []uint32 {
	mask, vals := w[:d.words], w[d.words:d.words+len(v)]
	clear(mask)
	n, c := 0, 0
	for ; c+4 <= len(v); c += 4 {
		g := v[c : c+4 : c+4]
		b0, b1, b2, b3 := math.Float32bits(g[0]), math.Float32bits(g[1]), math.Float32bits(g[2]), math.Float32bits(g[3])
		z0, z1, z2, z3 := nonzero(b0), nonzero(b1), nonzero(b2), nonzero(b3)
		mask[c>>5] |= (z0 | z1<<1 | z2<<2 | z3<<3) << (c & 31)
		vals[n] = b0
		n += int(z0)
		vals[n] = b1
		n += int(z1)
		vals[n] = b2
		n += int(z2)
		vals[n] = b3
		n += int(z3)
	}
	for ; c < len(v); c++ {
		b := math.Float32bits(v[c])
		z := nonzero(b)
		mask[c>>5] |= z << (c & 31)
		vals[n] = b
		n += int(z)
	}
	return w[:d.words+n]
}

// nonzero is 1 if b is not 0, else 0.
func nonzero(b uint32) uint32 { return (b | -b) >> 31 }

// appendDesc adds desc as the table's next row and returns its index.
func (s *SparseRows) appendDesc(desc uint64) int {
	i := s.rows.Len()
	s.rows.Grow(1)
	s.rows.At(i)[0] = desc
	return i
}

// Append stores v as a new row, with words of its own, and returns its index.
// v must have Dim() elements.
func (s *SparseRows) Append(v []float32) int { return s.AppendShared(v, Ref{}) }

// AppendShared is Append, except where r names a row on the table's data
// arena whose words are v's: then the new row is that row, stored once, and
// the table's Bytes grows by its descriptor alone.
func (s *SparseRows) AppendShared(v []float32, r Ref) int {
	d := s.d
	if len(v) != d.dim {
		panic(fmt.Sprintf("vector: sparse store dimension mismatch: row has %d, store wants %d", len(v), d.dim))
	}
	if d.row == nil {
		d.row = make([]uint32, d.words+d.dim)
	}
	w := d.pack(d.row, v)
	if d.holds(r, w) {
		return s.appendDesc(r.desc)
	}
	at := s.appendWords(w)
	return s.appendDesc(d.descOf(at, w))
}

// appendWords stores w, a row's words, on the table's data arena and returns
// the word it starts at; the caller appends its descriptor.
func (s *SparseRows) appendWords(w []uint32) int {
	d := s.d
	at := d.place(d.data.Len(), len(w))
	d.data.Grow(at + len(w) - d.data.Len())
	copy(d.descWords(uint64(at)), w)
	s.own += len(w)
	return at
}

// AppendRef adds the row r names as a new row of this table and returns its
// index: the same words, shared where r is a row of the table's data arena,
// so the table's Bytes grows by the descriptor alone, and copied word for
// word where it is not. r must name a row of the table's dimensionality.
func (s *SparseRows) AppendRef(r Ref) int {
	if r.d == s.d {
		return s.appendDesc(r.desc)
	}
	if r.d == nil || r.d.dim != s.d.dim {
		panic("vector: AppendRef of no row, or of a row of another dimension")
	}
	return s.appendDesc(uint64(s.appendWords(r.d.rowOf(r.desc))) | r.desc&nonFinite)
}

// Ref names one stored row: its data arena and its descriptor. The zero Ref
// names none.
type Ref struct {
	d    *RowData
	desc uint64
}

// Ref returns a reference to row i, for AppendShared, AppendRef and Load.
func (s *SparseRows) Ref(i int) Ref { return Ref{s.d, s.desc(i)} }

// holds reports whether r names a row on d whose words are w.
func (d *RowData) holds(r Ref, w []uint32) bool {
	return r.d == d && r.Holds(w)
}

// Holds reports whether r names a row whose words are w, a row's words as
// Load's row gives them. The zero Ref holds none.
func (r Ref) Holds(w []uint32) bool {
	return r.d != nil && slices.Equal(r.d.rowOf(r.desc), w)
}

// Load fills an empty table with n rows, each arena grown to its final size
// (arena.GrowExact). row(i) returns row i's words, valid until the next
// call; Load calls it for i = 0, …, n−1 twice, once to check and lay the rows
// out and once to copy them. alias, which may be nil, is called once a row,
// in row order, with row i's words: it names a row on the table's data arena
// that row i is, storing no words, where that row's words are row i's (as
// AppendShared). A row Append could not have stored — a mask bit at or past
// the dimension, words cut short, a value whose bits are 0 — fails the load,
// naming it, and leaves the table unusable.
func (s *SparseRows) Load(n int, row func(i int) []uint32, alias func(i int, w []uint32) Ref) error {
	if s.Len() != 0 {
		panic("vector: Load into a non-empty sparse store")
	}
	d := s.d
	s.rows.GrowExact(n)
	base, end := d.data.Len(), d.data.Len()
	for i := range n {
		w := row(i)
		if err := d.check(w); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		if alias != nil {
			if r := alias(i, w); d.holds(r, w) {
				s.rows.At(i)[0] = r.desc
				continue
			}
		}
		at := d.place(end, len(w))
		s.rows.At(i)[0] = d.descOf(at, w)
		s.own += len(w)
		end = at + len(w)
	}
	d.data.GrowExact(end - base)
	for i := range n {
		// An alias names a row below base, which was stored before.
		if w, at := row(i), int(s.rows.At(i)[0]&^nonFinite); at >= base {
			copy(d.descWords(uint64(at)), w)
		}
	}
	return nil
}

// check reports how w is not a row Append could have stored, or nil.
func (d *RowData) check(w []uint32) error {
	if len(w) < d.words || len(w) != d.size(w) {
		return errors.New("cut short")
	}
	for j, m := range w[:d.words] {
		if c := j<<5 + bits.Len32(m) - 1; m != 0 && c >= d.dim {
			return fmt.Errorf("mask bit %d at or past dimension %d", c, d.dim)
		}
	}
	if slices.Contains(w[d.words:], 0) {
		return errors.New("a stored value's bits are 0")
	}
	return nil
}

// Copy returns a table of s's rows stored afresh, word for word, on a data
// arena of its own, laid out as Load lays them.
func (s *SparseRows) Copy() *SparseRows { return s.CopyOn(NewRowData(s.d.dim), nil, nil) }

// CopyOn returns a table on d of s's rows picks[0], picks[1], … (every row,
// in order, when picks is nil), stored afresh as Load stores them: word for
// word, or as the row alias names (Load's alias, called with the new row's
// index). d must have s's dimensionality.
func (s *SparseRows) CopyOn(d *RowData, picks []int32, alias func(i int, w []uint32) Ref) *SparseRows {
	n, row := s.Len(), s.words
	if picks != nil {
		n, row = len(picks), func(i int) []uint32 { return s.words(int(picks[i])) }
	}
	t := NewSparseRowsOn(d)
	if err := t.Load(n, row, alias); err != nil {
		panic(err) // a stored row is well formed
	}
	return t
}

// WriteRows writes the table's rows to w in row order, each as it sits in
// memory: its mask, ceil(dim/64) little-endian 64-bit words (the bytes of its
// 32-bit words), then its values' bits, 4 bytes each. No descriptor is
// written: ReadRows works out the rest from the words, and a shared row is
// written whole. Write errors surface at w's Flush.
func (s *SparseRows) WriteRows(w *bufio.Writer) {
	for i := range s.Len() {
		s.WriteRow(w, i)
	}
}

// WriteRow writes row i to w as WriteRows writes each row: 4 × Words(i)
// bytes.
func (s *SparseRows) WriteRow(w *bufio.Writer, i int) { binio.WriteWords(w, s.words(i)) }

// RowsSize reports the number of bytes WriteRows writes.
func (s *SparseRows) RowsSize() (n int) {
	for i := range s.Len() {
		n += 4 * len(s.words(i))
	}
	return n
}

// ReadRows fills the empty table s with n rows read from rd, as WriteRows
// wrote them. alias is Load's. Fewer bytes than n rows need at the least (a
// mask), or a row Load refuses, fail the read and leave the table unusable.
func (s *SparseRows) ReadRows(rd *binio.Reader, n int, alias func(i int, w []uint32) Ref) error {
	if n == 0 {
		return nil // a hostile header's dimension sizes no scratch
	}
	d := s.d
	if least := 4 * d.words; n > rd.Len()/least {
		return fmt.Errorf("%d rows of at least %d bytes in %d bytes", n, least, rd.Len())
	}
	w := make([]uint32, d.words)
	// Load reads the rows twice, in order, so each pass starts where they
	// begin: a Reader is a cursor, and a copy of it another.
	start := *rd
	return s.Load(n, func(i int) []uint32 {
		if i == 0 {
			*rd = start
		}
		binio.ReadWords(rd, w[:d.words])
		k := d.size(w)
		if rd.Err() != nil || rd.Len() < 4*(k-d.words) {
			return nil // the mask or the values cut short
		}
		w = slices.Grow(w[:d.words], k-d.words)[:k]
		binio.ReadWords(rd, w[d.words:])
		return w
	}, alias)
}

// Row returns row i's mask words (bit c of word c/32 for coordinate c) and
// its stored values, in coordinate order, bit for bit. The slices alias the
// store; the caller must not modify them.
func (s *SparseRows) Row(i int) (mask []uint32, vals []float32) {
	w, words := s.words(i), s.d.words
	return w[:words:words], floats(w[words:])
}

// floats views words of value bits as the float32 values they hold.
func floats(w []uint32) []float32 {
	return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(w))), len(w))
}

// CopyTo sets dst, of Dim() elements, to row i: the vector Append stored,
// bit for bit. The assembly paths expand the row in registers, a group of
// lanes at a time, as the gathers do.
func (s *SparseRows) CopyTo(dst []float32, i int) {
	if s.expand(dst, i, false) {
		return
	}
	w, words := s.words(i), s.d.words
	dst = dst[:s.d.dim]
	clear(dst)
	vals, k := floats(w[words:]), 0
	for j := 0; j < words; j += 2 {
		for m := uint64(w[j]) | uint64(w[j+1])<<32; m != 0; m &= m - 1 {
			dst[j<<5|bits.TrailingZeros64(m)] = vals[k]
			k++
		}
	}
}

// AddTo adds row i into dst, of Dim() elements: Add(dst, row) over the row's
// stored coordinates, the same bits as Add whenever no element of dst is −0
// or a signalling NaN — so always for a sum that starts from +0. The
// portable path adds the stored coordinates alone; the assembly paths add
// the expanded row, +0 where nothing is stored, which is the same there.
func (s *SparseRows) AddTo(dst []float32, i int) {
	if s.expand(dst, i, true) {
		return
	}
	w, words := s.words(i), s.d.words
	dst = dst[:s.d.dim]
	vals, k := floats(w[words:]), 0
	for j := 0; j < words; j += 2 {
		for m := uint64(w[j]) | uint64(w[j+1])<<32; m != 0; m &= m - 1 {
			dst[j<<5|bits.TrailingZeros64(m)] += vals[k]
			k++
		}
	}
}

// expand stores row i to dst, or adds it with add set, through the assembly
// kernels, and reports false, doing nothing, on the portable path.
func (s *SparseRows) expand(dst []float32, i int, add bool) bool {
	if !simdOn {
		return false
	}
	w, d := s.words(i), s.d
	dst = dst[:d.dim]
	if avx512 {
		expandMaskAVX512(&dst[0], &w[0], d.dim, 4*d.words, add)
	} else {
		expandMaskAVX2(&dst[0], &w[0], d.dim, 4*d.words, add, &maskExpand[0][0])
	}
	return true
}

// FrozenOn returns a read-only snapshot of the table in O(1) over d, a
// Frozen snapshot of its data arena taken now: the tables that share an
// arena share one snapshot of it. The caller must not mutate either.
func (s *SparseRows) FrozenOn(d *RowData) *SparseRows {
	return &SparseRows{d: d, rows: s.rows.Snapshot(), own: s.own}
}

// Bytes reports the memory the table's rows take: 4 B a word of the rows it
// stored — a row's mask is 8 B per 64 coordinates, a value 4 B — and 8 B a
// descriptor, a shared row's included. It depends on the rows alone, not on
// how the arena grew — a table and its saved and loaded copy report the
// same — and leaves out the chunk tails, less than a row a chunk, and the
// unused capacity, less than a chunk an arena.
func (s *SparseRows) Bytes() int { return 4*s.own + 8*s.rows.Len() }

// OwnWords reports the words of the rows the table stored itself, Bytes
// without the descriptors.
func (s *SparseRows) OwnWords() int { return s.own }

// Words reports the number of words row i occupies: its mask and values.
func (s *SparseRows) Words(i int) int { return len(s.words(i)) }

// Offset reports the word of the data arena row i starts at.
func (s *SparseRows) Offset(i int) int { return int(s.desc(i) &^ nonFinite) }

// Cap reports the allocated capacity of the descriptor table, in rows.
func (s *SparseRows) Cap() int { return s.rows.Cap() }

// descShift fixes a descriptor chunk at 1<<descShift rows.
const descShift = 6

// DescChunkRows is the number of descriptors in one descriptor chunk.
const DescChunkRows = 1 << descShift

// gatherBlock is the most rows one kernel call of DotGather scores: the
// rows' addresses sit in an array on its stack.
const gatherBlock = 32

// maskExpand is the AVX2 kernels' table, a 32-byte row per mask byte m:
// lane l holds the VPERMPS index of its value (the rank of bit l among m's
// set bits, or m's popcount — the first lane the load left +0 — where bit l
// is clear), with the sign bit set in m's first popcount(m) lanes, the
// VMASKMOVPS mask that loads just m's values.
var maskExpand = func() (t [256][8]int32) {
	for m := range t {
		pc := int32(bits.OnesCount8(uint8(m)))
		for l := range 8 {
			t[m][l] = pc & 7
			if m>>l&1 != 0 {
				t[m][l] = int32(bits.OnesCount8(uint8(m & (1<<l - 1))))
			}
			if int32(l) < pc {
				t[m][l] |= math.MinInt32
			}
		}
	}
	return t
}()

// DotGather sets out[j] = Dot(q, row idxs[j]) for j in [0, len(out)), the
// row expanded: bit-identical to the single-pair call on the expanded row,
// on every kernel path. The assembly kernels score up to gatherBlock rows a
// call; the portable twin sums the coordinates the query and the row both
// hold nonzero. q must have the store's dimensionality and is only read.
func (s *SparseRows) DotGather(q []float32, idxs []int32, out []float32) {
	d := s.d
	if len(q) != d.dim || len(idxs) != len(out) {
		panic(fmt.Sprintf("vector: gather of a dim-%d query, %d idxs, %d outs over a dim-%d store", len(q), len(idxs), len(out), d.dim))
	}
	if !simdOn {
		s.dotGatherTwin(q, idxs, out)
		return
	}
	// A block's rows are checked as they are resolved, before the kernel
	// reads any of them: it takes raw addresses.
	var rows [gatherBlock]unsafe.Pointer
	descs, spine := s.rows.Spine(), d.data.Spine()
	within := uint64(1)<<d.shift - 1
	for lo := 0; lo < len(idxs); lo += gatherBlock {
		blk := idxs[lo:min(lo+gatherBlock, len(idxs))]
		for j, i := range blk {
			if uint(i) >= uint(s.Len()) {
				panic(fmt.Sprintf("vector: gather row %d out of range [0, %d)", i, s.Len()))
			}
			at := descs[i>>descShift][i&(DescChunkRows-1)] &^ nonFinite
			rows[j] = unsafe.Pointer(&spine[at>>d.shift][at&within])
		}
		if avx512 {
			dotMaskAVX512(unsafe.SliceData(q), d.dim, &rows[0], 4*d.words, len(blk), gatherAhead, &out[lo])
		} else {
			dotMaskAVX2(unsafe.SliceData(q), d.dim, &rows[0], 4*d.words, len(blk), gatherAhead, &out[lo], &maskExpand[0][0])
		}
	}
}

// CosineUnitGather sets out[j] to CosineUnitDist(q, row idxs[j]) — the one
// way to score a query against stored rows, in a graph walk and in an exact
// scan alike. out[j] is bit-identical to the single-pair call on the
// expanded row on every kernel path, so the distance from a to b has the
// bits of the distance from b to a (an index caches a link's distance in one
// direction and recomputes it in the other). q is only read.
func (s *SparseRows) CosineUnitGather(q []float32, idxs []int32, out []float32) {
	s.DotGather(q, idxs, out)
	for j := range out {
		out[j] = 1 - out[j]
	}
}

// dotGatherTwin is DotGather's portable path. It lays the query out once a
// call, as the mask of its nonzero coordinates, and sums each row over the
// coordinates both hold nonzero alone (layout), reading the row's value
// there (its rank among the row's values) from a scratch copy: a skipped
// coordinate is a zero times a finite value, which changes no lane. So a
// query or a row with an Inf or NaN, which a zero would turn into a NaN
// product, or a lane that rounds to −0, sums every coordinate of the
// expanded row (dotScalar).
func (s *SparseRows) dotGatherTwin(q []float32, idxs []int32, out []float32) {
	d := s.d
	var vb [256]float32
	var lb layoutBuf
	var qb [16]uint32
	v, idx, qmask := vb[:], lb[:], qb[:]
	if d.dim > len(v) {
		v, idx, qmask = make([]float32, d.dim), make([]int32, d.dim), make([]uint32, d.words)
	}
	v, qmask = v[:d.dim], qmask[:d.words]
	for c, x := range q {
		if math.Float32bits(x) != 0 {
			qmask[c>>5] |= 1 << (c & 31)
		}
	}
	finite := allFinite(q)
	var dense []float32
	for j, i := range idxs {
		if uint(i) >= uint(s.Len()) {
			panic(fmt.Sprintf("vector: row %d out of range [0, %d)", i, s.Len()))
		}
		desc := s.rows.Spine()[i>>descShift][i&(DescChunkRows-1)]
		if finite && desc&nonFinite == 0 {
			w := d.descWords(desc)
			vals := floats(w[d.words:])
			n, base := 0, 0
			for k, m := range w[:d.words] {
				for both := m & qmask[k]; both != 0; both &= both - 1 {
					b := bits.TrailingZeros32(both)
					c := k<<5 | b
					idx[n], v[c] = int32(c), vals[base+bits.OnesCount32(m&(1<<b-1))]
					n++
				}
				base += bits.OnesCount32(m)
			}
			l := layout{v: q, idx: idx[:n], n8: n, sparse: true}
			for l.n8 > 0 && int(idx[l.n8-1]) >= d.dim&^7 {
				l.n8--
			}
			l.n32 = l.n8
			for l.n32 > 0 && int(idx[l.n32-1]) >= d.dim&^31 {
				l.n32--
			}
			dot, ok := l.sum(v)
			for _, c := range idx[:n] {
				v[c] = 0
			}
			if ok {
				out[j] = dot
				continue
			}
		}
		if dense == nil {
			dense = make([]float32, d.dim)
		}
		s.CopyTo(dense, int(i))
		out[j] = dotScalar(q, dense)
	}
}

// allFinite reports whether no element of v is an Inf or a NaN.
func allFinite(v []float32) bool {
	var inf uint32
	for _, x := range v {
		if b := math.Float32bits(x); b&0x7f800000 == 0x7f800000 {
			inf = 1
		}
	}
	return inf == 0
}
