package vector

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sparseRowOf returns a dim-wide row with about density of its coordinates
// set, the others +0.
func sparseRowOf(rng *rand.Rand, dim int, density float64) []float32 {
	v := make([]float32, dim)
	for d := range v {
		if rng.Float64() < density {
			v[d] = rng.Float32()*2 - 1
		}
	}
	return v
}

// nonzeros counts the coordinates of v a bitmask row keeps.
func nonzeros(v []float32) int {
	n := 0
	for _, x := range v {
		if math.Float32bits(x) != 0 {
			n++
		}
	}
	return n
}

// packed is a Load row source of rows, packed as Append packs them.
func packed(d *RowData, rows [][]float32) func(i int) []uint32 {
	w := make([]uint32, d.words+d.dim)
	return func(i int) []uint32 { return d.pack(w, rows[i]) }
}

func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// checkSparseRows holds s to the rows it was given: each expands to its
// dense row bit for bit on every kernel path, keeps exactly its nonzero
// coordinates' bits in its mask and values, lies inside one chunk, and the
// tables' unused capacity is under one chunk each.
func checkSparseRows(t *testing.T, s *SparseRows, rows [][]float32) {
	t.Helper()
	if s.Len() != len(rows) {
		t.Fatalf("store holds %d rows, want %d", s.Len(), len(rows))
	}
	got := make([]float32, s.Dim()+1)
	for _, mode := range kernelPaths(t) {
		ForceKernels(t, mode)
		for i, want := range rows {
			got[s.Dim()] = 7
			s.CopyTo(got, i)
			if !sameBits(got[:s.Dim()], want) || got[s.Dim()] != 7 {
				t.Fatalf("%s: row %d expands to %v, want %v", Kernels(), i, got, want)
			}
		}
	}
	for i, want := range rows {
		mask, vals := s.Row(i)
		if len(mask) != 2*((s.Dim()+63)/64) || len(vals) != nonzeros(want) {
			t.Fatalf("row %d has %d mask words and %d values, want %d and %d", i, len(mask), len(vals), 2*((s.Dim()+63)/64), nonzeros(want))
		}
		if n, off, chunk := len(mask)+len(vals), s.Offset(i), s.Data().ChunkElems(); off/chunk != (off+n-1)/chunk {
			t.Fatalf("row %d of %d words at %d straddles a %d-word chunk", i, n, off, chunk)
		}
	}
	if d := s.Data(); d.Cap()-d.Elems() < 0 || d.Cap()-d.Elems() >= d.ChunkElems() {
		t.Fatalf("data arena holds %d words with room for %d", d.Elems(), d.Cap())
	}
	if slack := s.Cap() - s.Len(); slack < 0 || slack >= DescChunkRows {
		t.Fatalf("descriptor table holds %d rows with room for %d", s.Len(), s.Cap())
	}
}

// TestSparseRowsStore: rows of every density — empty, full, and the
// encoder's quarter — over several chunks of a small dimension, appended or
// loaded, expand to what was stored and lie inside one chunk each; a loaded
// store lays its rows out as the appending one did, in tables no larger than
// they fill, and grows on from there; a frozen snapshot reads its rows,
// unmoved, while the writer appends past them.
func TestSparseRowsStore(t *testing.T) {
	const dim = 24 // a 512-word chunk: 19 full rows
	rng := rand.New(rand.NewSource(5))
	var rows [][]float32
	for i := range 300 {
		density := []float64{0, 1, 0.25, 0.05, 0.6}[i%5]
		rows = append(rows, sparseRowOf(rng, dim, density))
	}
	s := NewSparseRows(dim)
	for i, v := range rows[:200] {
		if got := s.Append(v); got != i {
			t.Fatalf("Append returned %d, want %d", got, i)
		}
	}
	checkSparseRows(t, s, rows[:200])
	frozen := s.FrozenOn(s.Data().Frozen())
	addrs := make([]*uint32, frozen.Len())
	for i := range addrs {
		mask, _ := frozen.Row(i)
		addrs[i] = &mask[0]
	}
	for _, v := range rows[200:] {
		s.Append(v)
	}
	checkSparseRows(t, s, rows)
	checkSparseRows(t, frozen, rows[:200])
	for i, p := range addrs {
		if mask, _ := s.Row(i); &mask[0] != p {
			t.Fatalf("row %d moved when the writer grew", i)
		}
	}

	loaded := NewSparseRows(dim)
	if err := loaded.Load(200, packed(loaded.Data(), rows), nil); err != nil {
		t.Fatal(err)
	}
	checkSparseRows(t, loaded, rows[:200])
	if loaded.Data().Cap() != frozen.Data().Elems() || loaded.Cap() != 200 {
		t.Fatalf("loaded tables hold %d words and %d rows, the rows fill %d and 200", loaded.Data().Cap(), loaded.Cap(), frozen.Data().Elems())
	}
	for i := range 200 {
		if loaded.Offset(i) != frozen.Offset(i) {
			t.Fatalf("loaded row %d at %d, appended at %d", i, loaded.Offset(i), frozen.Offset(i))
		}
	}
	if loaded.Bytes() != frozen.Bytes() {
		t.Fatalf("loaded store reports %d bytes, appended %d", loaded.Bytes(), frozen.Bytes())
	}
	for _, v := range rows[200:] {
		loaded.Append(v)
	}
	checkSparseRows(t, loaded, rows)

	for _, bad := range []func(){
		func() { frozen.Row(frozen.Len()) },
		func() { frozen.Row(-1) },
		func() { NewSparseRows(0) },
		func() { s.Append(make([]float32, dim+1)) },
		func() { s.Load(1, packed(s.Data(), rows), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("want a panic")
				}
			}()
			bad()
		}()
	}
}

// TestSparseRowsSharedArena: two tables on one data arena — entity rows,
// and nodes that AppendShared makes either rows of their own or shares of
// the entity row they name, exactly where they have its words — read back
// their rows on every path, from the writer and from snapshots that share
// one frozen arena. A table's Bytes counts the words it stored and its
// descriptors; Load, entity table first, aliases exactly the rows that hold
// their reference's words, sizes the arena to the rows, and gives every row
// and Bytes back; Copy moves a table to a new arena word for word. A row
// on another arena is never shared.
func TestSparseRowsSharedArena(t *testing.T) {
	const dim = 40 // a 1024-word chunk: 21 full rows
	rng := rand.New(rand.NewSource(9))
	d := NewRowData(dim)
	ents, nodes := NewSparseRowsOn(d), NewSparseRowsOn(d)
	var entRows, nodeRows [][]float32
	var refs []int     // the entity row node i names as its alias
	var aliased []bool // whether node i shares its entity row
	for b := range 60 {
		for range 3 {
			v := sparseRowOf(rng, dim, 0.25)
			ents.Append(v)
			entRows = append(entRows, v)
		}
		// A batch's new tuple is its first row; the others join older ones.
		first := ents.Len() - 3
		nodes.AppendShared(entRows[first], ents.Ref(first))
		nodeRows, refs, aliased = append(nodeRows, entRows[first]), append(refs, first), append(aliased, true)
		if b%2 == 0 {
			v := sparseRowOf(rng, dim, 0.4)
			nodes.AppendShared(v, ents.Ref(b))
			nodeRows, refs, aliased = append(nodeRows, v), append(refs, b), append(aliased, false)
		}
	}
	checkSparseRows(t, ents, entRows)
	checkSparseRows(t, nodes, nodeRows)
	words := func(rows [][]float32) int {
		n := 0
		for _, v := range rows {
			n += 2*((dim+63)/64) + nonzeros(v)
		}
		return n
	}
	owned := 0
	for i, v := range nodeRows {
		if !aliased[i] {
			owned += 2*((dim+63)/64) + nonzeros(v)
		}
	}
	if got, want := ents.Bytes(), 4*words(entRows)+8*ents.Len(); got != want {
		t.Fatalf("entity table reports %d bytes, want %d", got, want)
	}
	if got, want := nodes.Bytes(), 4*owned+8*nodes.Len(); got != want {
		t.Fatalf("node table reports %d bytes, want %d", got, want)
	}

	frozen := d.Frozen()
	fe, fn := ents.FrozenOn(frozen), nodes.FrozenOn(frozen)
	for range 30 {
		v := sparseRowOf(rng, dim, 0.25)
		ents.Append(v)
		nodes.AppendShared(v, ents.Ref(ents.Len()-1))
	}
	checkSparseRows(t, fe, entRows)
	checkSparseRows(t, fn, nodeRows)
	if fe.Bytes() != 4*words(entRows)+8*fe.Len() {
		t.Fatalf("a snapshot's Bytes moved with its writer")
	}

	// Load: the entities, then the nodes, each naming the entity row it
	// was given (or a row it does not hold) as its alias.
	ld := NewRowData(dim)
	le, ln := NewSparseRowsOn(ld), NewSparseRowsOn(ld)
	if err := le.Load(len(entRows), packed(ld, entRows), nil); err != nil {
		t.Fatal(err)
	}
	if err := ln.Load(len(nodeRows), packed(ld, nodeRows), func(i int, _ []uint32) Ref { return le.Ref(refs[i]) }); err != nil {
		t.Fatal(err)
	}
	checkSparseRows(t, le, entRows)
	checkSparseRows(t, ln, nodeRows)
	if ld.Cap() != ld.Elems() {
		t.Fatalf("loaded arena holds %d words with room for %d", ld.Elems(), ld.Cap())
	}
	for i, r := range refs {
		if alias := ln.Offset(i) == le.Offset(r); alias != aliased[i] {
			t.Fatalf("loaded node %d shares entity row %d's words: %v", i, r, alias)
		}
	}
	if ln.Bytes() != fn.Bytes() || le.Bytes() != fe.Bytes() {
		t.Fatalf("loaded tables report %d and %d bytes, appended %d and %d", le.Bytes(), ln.Bytes(), fe.Bytes(), fn.Bytes())
	}

	moved := fn.Copy()
	checkSparseRows(t, moved, nodeRows)
	if moved.Bytes() != 4*words(nodeRows)+8*len(nodeRows) {
		t.Fatalf("a copied table reports %d bytes, its rows take %d", moved.Bytes(), 4*words(nodeRows)+8*len(nodeRows))
	}
	if before := moved.Bytes(); moved.AppendShared(entRows[0], le.Ref(0)) >= 0 && moved.Bytes() == before+8 {
		t.Fatal("AppendShared shared a row on another data arena")
	}

	// CopyOn: the picked rows, in pick order, on the loaded arena, each
	// sharing the entity row its alias names where that row holds its words;
	// the alias sees each row's words, once, in order.
	picks := []int32{5, 0, 5, 17}
	seen := 0
	picked := fn.CopyOn(ld, picks, func(i int, w []uint32) Ref {
		if i != seen || le.Ref(refs[picks[i]]).Holds(w) != aliased[picks[i]] {
			t.Fatalf("alias called for row %d (want %d), words held by its entity row: %v", i, seen, le.Ref(refs[picks[i]]).Holds(w))
		}
		seen++
		return le.Ref(refs[picks[i]])
	})
	want := make([][]float32, len(picks))
	for i, p := range picks {
		want[i] = nodeRows[p]
		if alias := picked.Offset(i) == le.Offset(refs[p]); alias != aliased[p] {
			t.Fatalf("picked row %d (node %d) shares entity row %d's words: %v", i, p, refs[p], alias)
		}
	}
	checkSparseRows(t, picked, want)
}

// TestSparseRowsLargeDim: past 1<<16 words a full row, a chunk holds one
// full row rounded up to a power of two, and a row of every coordinate, one
// of the last coordinate only and an empty one round-trip.
func TestSparseRowsLargeDim(t *testing.T) {
	const dim = 1<<16 + 3
	s := NewSparseRows(dim)
	if s.Data().ChunkElems() != 1<<17 {
		t.Fatalf("a dim-%d store has %d-word chunks, want %d", dim, s.Data().ChunkElems(), 1<<17)
	}
	full := make([]float32, dim)
	for d := range full {
		full[d] = float32(d + 1)
	}
	last := make([]float32, dim)
	last[dim-1] = -1
	rows := [][]float32{full, last, full, make([]float32, dim), full}
	for _, v := range rows {
		s.Append(v)
	}
	checkSparseRows(t, s, rows)
}

// pack writes a row's words by their definition — bit c of the mask set iff
// coordinate c's bits are not 0, then those coordinates' bits in order — at
// every dimension around its four-coordinate groups and mask words, at every
// density, −0, NaN payloads, subnormals and infinities included.
func TestPackMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	special := []uint32{0x80000000, 0x7fc12345, 0xffa00001, 1, 0x807fffff, 0x7f800000, 0xff800000}
	for _, dim := range []int{1, 3, 4, 5, 31, 32, 33, 63, 64, 65, 66, 255, 256, 257} {
		d := NewRowData(dim)
		for _, density := range []float64{0, 0.05, 0.25, 0.5, 0.9, 1} {
			v := make([]float32, dim)
			want := make([]uint32, d.words)
			for c := range v {
				if rng.Float64() < density {
					v[c] = float32(rng.NormFloat64())
					if rng.Intn(6) == 0 {
						v[c] = math.Float32frombits(special[rng.Intn(len(special))])
					}
					want[c>>5] |= 1 << (c & 31)
					want = append(want, math.Float32bits(v[c]))
				}
			}
			w := make([]uint32, d.words+dim)
			for i := range w {
				w[i] = 0xdeadbeef
			}
			if got := d.pack(w, v); !slices.Equal(got, want) {
				t.Fatalf("dim %d density %v: pack gives %x, want %x", dim, density, got, want)
			}
		}
	}
}

// FuzzSparseRow: from arbitrary float32 bit patterns — ±0, NaN payloads,
// infinities, subnormals — a compressed row expands to the dense row bit for
// bit, and adding compressed rows into a sum that starts from +0 (AddTo)
// gives the bits Add gives adding the dense ones, on every kernel path. Both rows are stored many
// times over, so the rows cross chunk boundaries.
func FuzzSparseRow(f *testing.F) {
	le := func(bits ...uint32) []byte {
		b := make([]byte, 4*len(bits))
		for i, x := range bits {
			binary.LittleEndian.PutUint32(b[4*i:], x)
		}
		return b
	}
	f.Add(le(0x80000000, 0, 0x3f800000), le(0x80000000, 0x80000000, 0))                // −0 in both rows, and beside +0
	f.Add(le(0x7fa00001, 0x7fc12345, 0, 1), le(0, 0xffc00abc, 0x3f800000, 0x80000001)) // NaN payloads, subnormals
	f.Add(le(0x7f800000, 0xff800000, 0x7f7fffff), le(0xff800000, 0, 0x7f7fffff))       // ±Inf, overflow to Inf
	f.Add(make([]byte, 4*33), le(0x3f800000))
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		n := min(len(ab), len(bb), 4*4096) / 4
		if n == 0 {
			return
		}
		a, b := make([]float32, n), make([]float32, n)
		for i := range n {
			a[i] = math.Float32frombits(binary.LittleEndian.Uint32(ab[4*i:]))
			b[i] = math.Float32frombits(binary.LittleEndian.Uint32(bb[4*i:]))
		}
		s := NewSparseRows(n)
		var rows [][]float32
		for range 40 {
			s.Append(a)
			s.Append(b)
			rows = append(rows, a, b)
		}
		checkSparseRows(t, s, rows)
		for _, mode := range kernelPaths(t) {
			ForceKernels(t, mode)
			dense, sparse := make([]float32, n), make([]float32, n)
			for i, v := range rows[:4] {
				Add(dense, v)
				s.AddTo(sparse, i)
				if !sameBits(dense, sparse) {
					t.Fatalf("%s: after %d rows: AddTo gives %v, Add %v", Kernels(), i+1, sparse, dense)
				}
			}
		}
	})
}
