package vector

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/arena"
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
// A row Append stores is the table's own; one AppendRef names is another
// table's row on the same data arena, whose words it shares: a shard's index
// node for a one-member tuple is its member's entity row. Rows are never
// rewritten, so a stored row never moves, Frozen is O(1), and no
// copy-on-write copy ever happens. A SparseRows is not safe for concurrent
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

// rowWords returns the words from row i's first to its chunk's end: the row's
// mask, then its values. It panics on a row out of range.
func (s *SparseRows) rowWords(i int) []uint32 { return s.d.descWords(s.desc(i)) }

// descWords returns the words from the row desc describes to its chunk's
// end.
func (d *RowData) descWords(desc uint64) []uint32 {
	at := desc &^ nonFinite
	return d.data.Spine()[at>>d.shift][at&(1<<d.shift-1):]
}

// descOf is the descriptor of v stored at word at.
func descOf(at int, v []float32) uint64 {
	if allFinite(v) {
		return uint64(at)
	}
	return uint64(at) | nonFinite
}

// store writes v as the row that starts at word at: its mask, then its
// nonzeros.
func (d *RowData) store(at int, v []float32) {
	w := d.descWords(uint64(at))
	mask, vals := w[:d.words], w[d.words:]
	clear(mask)
	n := 0
	for c, x := range v {
		if b := math.Float32bits(x); b != 0 {
			mask[c>>5] |= 1 << (c & 31)
			vals[n] = b
			n++
		}
	}
}

// grow makes room for a row of n words after the arena's last and returns
// the word it starts at.
func (d *RowData) grow(n int) int {
	at := d.place(d.data.Len(), n)
	d.data.Grow(at + n - d.data.Len())
	return at
}

// appendDesc adds desc as the table's next row and returns its index.
func (s *SparseRows) appendDesc(desc uint64) int {
	i := s.rows.Len()
	s.rows.Grow(1)
	s.rows.At(i)[0] = desc
	return i
}

// Append stores v as a new row, with words of its own, and returns its index.
// v must have Dim() elements.
func (s *SparseRows) Append(v []float32) int {
	if len(v) != s.d.dim {
		panic(fmt.Sprintf("vector: sparse store dimension mismatch: row has %d, store wants %d", len(v), s.d.dim))
	}
	n := s.d.words + nonzeros(v)
	at := s.d.grow(n)
	s.d.store(at, v)
	s.own += n
	return s.appendDesc(descOf(at, v))
}

// Ref names one stored row: its data arena and its descriptor. The zero Ref
// names none.
type Ref struct {
	d    *RowData
	desc uint64
}

// Ref returns a reference to row i, for AppendRef.
func (s *SparseRows) Ref(i int) Ref { return Ref{s.d, s.desc(i)} }

// Holds reports whether the row r names is v, bit for bit: what CopyTo of it
// would write. v must have the row's dimensionality.
func (r Ref) Holds(v []float32) bool {
	w := r.d.descWords(r.desc)
	mask, vals := w[:r.d.words], w[r.d.words:]
	k := 0
	for c, x := range v[:r.d.dim] {
		b := math.Float32bits(x)
		if mask[c>>5]>>(c&31)&1 == 0 {
			if b != 0 {
				return false
			}
			continue
		}
		if b != vals[k] {
			return false
		}
		k++
	}
	return true
}

// AppendRef adds the row r names as a new row of this table and returns its
// index: the same words, stored once, so the table's Bytes grows by the
// descriptor alone. r must name a row on the table's data arena.
func (s *SparseRows) AppendRef(r Ref) int {
	if r.d != s.d {
		panic("vector: AppendRef of a row on another data arena")
	}
	return s.appendDesc(r.desc)
}

// Load fills an empty table with n rows, every table allocated at its final
// size (arena.GrowExact): the descriptors, and the data arena grown by the
// rows' words and the chunk tails they leave, never more. row(i, dst) must
// write dense row i into dst; Load calls it for every row in order, and
// again for each row it stores. alias, which may be nil, names a row on the
// table's data arena that row i may share, or returns the zero Ref: where
// that row Holds row i, row i is an AppendRef of it and stores no words.
func (s *SparseRows) Load(n int, row func(i int, dst []float32), alias func(i int) Ref) {
	if s.Len() != 0 {
		panic("vector: Load into a non-empty sparse store")
	}
	if n == 0 {
		return // a hostile header's dimension sizes nothing
	}
	d := s.d
	dst := make([]float32, d.dim)
	s.rows.GrowExact(n)
	base := d.data.Len()
	end := base
	for i := range n {
		row(i, dst)
		if alias != nil {
			if r := alias(i); r.d == d && r.Holds(dst) {
				s.rows.At(i)[0] = r.desc
				continue
			}
		}
		k := d.words + nonzeros(dst)
		at := d.place(end, k)
		s.rows.At(i)[0] = descOf(at, dst)
		s.own += k
		end = at + k
	}
	d.data.GrowExact(end - base)
	for i := range n {
		// An alias names a row below base, which was stored before.
		if at := int(s.rows.At(i)[0] &^ nonFinite); at >= base {
			row(i, dst)
			d.store(at, dst)
		}
	}
}

// CopyOn returns a table of s's rows stored afresh, word for word, on d, an
// arena of the same dimensionality: every row its own, in row order.
func (s *SparseRows) CopyOn(d *RowData) *SparseRows {
	if d.dim != s.d.dim {
		panic(fmt.Sprintf("vector: CopyOn of dim-%d rows to a dim-%d arena", s.d.dim, d.dim))
	}
	t := NewSparseRowsOn(d)
	for i := range s.Len() {
		mask, vals := s.Row(i)
		n := len(mask) + len(vals)
		at := d.grow(n)
		w := d.descWords(uint64(at))
		copy(w, mask)
		copy(w[len(mask):], vals)
		t.own += n
		t.appendDesc(uint64(at) | s.desc(i)&nonFinite)
	}
	return t
}

// Row returns row i's mask words (bit c of word c/32 for coordinate c) and
// its stored values' bits, in coordinate order. The slices alias the store;
// the caller must not modify them.
func (s *SparseRows) Row(i int) (mask, vals []uint32) {
	w, words := s.rowWords(i), s.d.words
	n := 0
	for _, m := range w[:words] {
		n += bits.OnesCount32(m)
	}
	return w[:words:words], w[words : words+n : words+n]
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
	w, words := s.rowWords(i), s.d.words
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
	w, words := s.rowWords(i), s.d.words
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
	w, d := s.rowWords(i), s.d
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
// descriptor, an AppendRef's included. It depends on the rows alone, not on
// how the arena grew — a table and its saved and loaded copy report the
// same — and leaves out the chunk tails, less than a row a chunk, and the
// unused capacity, less than a chunk an arena.
func (s *SparseRows) Bytes() int { return 4*s.own + 8*s.rows.Len() }

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

// CosineUnitGather sets out[j] to CosineUnitDist(q, row idxs[j]), as the
// package-level CosineUnitGather does over a flat arena.
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
