package arena

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// shapes is the sweep every storage test runs: widths 1 (a tuple-table row),
// 25 (an HNSW link block at M = 12) and 256 (an embedding), at chunks of 1,
// 64 and 1024 rows.
var shapes = func() (out []struct {
	width int
	shift uint
}) {
	for _, w := range []int{1, 25, 256} {
		for _, s := range []uint{0, 6, 10} {
			out = append(out, struct {
				width int
				shift uint
			}{w, s})
		}
	}
	return out
}()

// tuple stands in for a row type that holds pointers, as the tuple table's
// does.
type tuple struct {
	members []int
	node    int32
}

// forShapes runs f as a subtest for every shape.
func forShapes(t *testing.T, f func(t *testing.T, width int, shift uint)) {
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("width=%d/rows=%d", sh.width, 1<<sh.shift), func(t *testing.T) {
			f(t, sh.width, sh.shift)
		})
	}
}

// int32Row and tupleRow give row i's contents as of generation gen, distinct
// for every row, element and generation.
func int32Row(width, i, gen int) []int32 {
	r := make([]int32, width)
	for k := range r {
		r[k] = int32(gen<<24 + i*width + k + 1)
	}
	return r
}

func tupleRow(width, i, gen int) []tuple {
	r := make([]tuple, width)
	for k := range r {
		r[k] = tuple{members: []int{i, k, gen}, node: int32(i*width + k + 1)}
	}
	return r
}

// TestRowsNeverMove: growth allocates whole chunks and copies nothing, so a
// row keeps its address for the arena's lifetime, the unused capacity stays
// under one chunk, and a snapshot reads the same rows at the same addresses
// while the writer appends across chunk boundaries.
func TestRowsNeverMove(t *testing.T) {
	forShapes(t, func(t *testing.T, width int, shift uint) {
		rowsNeverMove(t, width, shift, int32Row)
		rowsNeverMove(t, width, shift, tupleRow)
	})
}

func rowsNeverMove[T any](t *testing.T, width int, shift uint, row func(width, i, gen int) []T) {
	chunk := 1 << shift
	a := New[T](width, shift)
	var addrs []*T
	var snap Arena[T]
	snapAt := chunk / 2
	for i := 0; i < 4*chunk+9; i++ {
		if got := a.Append(row(width, i, 0)); got != i {
			t.Fatalf("Append returned %d, want %d", got, i)
		}
		addrs = append(addrs, &a.At(i)[0])
		if slack := a.Cap() - a.Len(); slack < 0 || slack >= chunk {
			t.Fatalf("after %d rows: %d unused rows", a.Len(), slack)
		}
		if i == snapAt {
			snap = a.Snapshot()
		}
	}
	for i, p := range addrs {
		if &a.At(i)[0] != p {
			t.Fatalf("row %d moved", i)
		}
		if !reflect.DeepEqual(a.At(i), row(width, i, 0)) {
			t.Fatalf("row %d = %v, want %v", i, a.At(i), row(width, i, 0))
		}
	}
	if snap.Len() != snapAt+1 {
		t.Fatalf("snapshot Len %d, want %d", snap.Len(), snapAt+1)
	}
	for i := 0; i < snap.Len(); i++ {
		if &snap.At(i)[0] != addrs[i] {
			t.Fatalf("snapshot row %d is not the writer's row", i)
		}
	}
}

// TestChunksRoundTrip: an arena's chunk blocks, copied in order into an arena
// sized by GrowExact, rebuild every row — how Save and Load move an arena —
// with no unused capacity at all. Growing the loaded arena moves its short
// last chunk's rows into a whole chunk once, and leaves every other row, and
// every row of a snapshot taken before, where it was.
func TestChunksRoundTrip(t *testing.T) {
	forShapes(t, func(t *testing.T, width int, shift uint) {
		chunksRoundTrip(t, width, shift, int32Row)
		chunksRoundTrip(t, width, shift, tupleRow)
	})
}

func chunksRoundTrip[T any](t *testing.T, width int, shift uint, row func(width, i, gen int) []T) {
	chunk := 1 << shift
	for _, rows := range []int{0, 1, chunk - 1, chunk, 2*chunk + 7} {
		a := New[T](width, shift)
		for i := range rows {
			a.Append(row(width, i, 0))
		}
		var flat []T
		for c := range a.Chunks() {
			flat = append(flat, a.Chunk(c)...)
		}
		if len(flat) != rows*width {
			t.Fatalf("%d rows: chunks hold %d elements", rows, len(flat))
		}
		u := New[T](width, shift)
		u.GrowExact(rows)
		if u.Len() != rows || u.Cap() != rows {
			t.Fatalf("GrowExact(%d): Len %d, Cap %d", rows, u.Len(), u.Cap())
		}
		for c, rest := 0, flat; c < u.Chunks(); c++ {
			rest = rest[copy(u.Chunk(c), rest):]
		}
		var addrs []*T
		for i := range rows {
			if !reflect.DeepEqual(u.At(i), a.At(i)) {
				t.Fatalf("%d rows: row %d = %v, want %v", rows, i, u.At(i), a.At(i))
			}
			addrs = append(addrs, &u.At(i)[0])
		}
		snap := u.Snapshot()
		for i := range chunk + 1 {
			u.Append(row(width, rows+i, 0))
			if slack := u.Cap() - u.Len(); slack < 0 || slack >= chunk {
				t.Fatalf("%d rows loaded, %d appended: %d unused rows", rows, i+1, slack)
			}
		}
		tail := rows &^ (chunk - 1)
		for i := range rows {
			if !reflect.DeepEqual(u.At(i), a.At(i)) || !reflect.DeepEqual(snap.At(i), a.At(i)) {
				t.Fatalf("%d rows: row %d changed value after growth", rows, i)
			}
			if moved := &u.At(i)[0] != addrs[i]; moved != (i >= tail) {
				t.Fatalf("%d rows: row %d moved=%v, only the short chunk's rows (from %d) move", rows, i, moved, tail)
			}
			if &snap.At(i)[0] != addrs[i] {
				t.Fatalf("%d rows: the snapshot's row %d moved", rows, i)
			}
		}
	}
}

// TestGrowExactInSteps: a loader that sizes one arena in two GrowExact
// steps, filling the first before the second, ends with every row it wrote
// and no unused capacity, as one step would.
func TestGrowExactInSteps(t *testing.T) {
	forShapes(t, func(t *testing.T, width int, shift uint) {
		chunk := 1 << shift
		for _, rows := range []int{1, chunk - 1, chunk, 2*chunk + 7} {
			for _, first := range []int{0, min(1, rows), rows / 2, max(rows-1, 0), rows} {
				u := New[int32](width, shift)
				u.GrowExact(first)
				for i := range first {
					copy(u.At(i), int32Row(width, i, 0))
				}
				u.GrowExact(rows - first)
				if u.Len() != rows || u.Cap() != rows {
					t.Fatalf("GrowExact(%d) then (%d): Len %d, Cap %d", first, rows-first, u.Len(), u.Cap())
				}
				for i := range first {
					if !reflect.DeepEqual(u.At(i), int32Row(width, i, 0)) {
						t.Fatalf("GrowExact(%d) then (%d): row %d lost", first, rows-first, i)
					}
				}
			}
		}
	})
}

// TestCopyOnWrite pins the contract a published view relies on: the first
// Mut into a shared chunk copies it and the second does not; the snapshot
// keeps reading the row as it was; an Append into the snapshot's shared last
// chunk copies nothing and stays past the snapshot's Len; and the writer
// copies its spine at most once per snapshot.
func TestCopyOnWrite(t *testing.T) {
	forShapes(t, func(t *testing.T, width int, shift uint) {
		copyOnWrite(t, width, shift, int32Row)
		copyOnWrite(t, width, shift, tupleRow)
	})
}

func copyOnWrite[T any](t *testing.T, width int, shift uint, row func(width, i, gen int) []T) {
	chunk := 1 << shift
	a := New[T](width, shift)
	n := 2*chunk + chunk/2 + 1 // two whole chunks and a partly filled third, or three of one row
	for i := range n {
		a.Append(row(width, i, 0))
	}
	chunkAddr := func(a *Arena[T], c int) *T { return &a.Spine()[c][0] }
	spineAddr := func(a *Arena[T]) *[]T { return &a.Spine()[0] }

	snap := a.Snapshot()

	// Growth past the snapshot copies nothing, whichever chunk it lands in.
	a.Append(row(width, n, 0))
	for c := range snap.Chunks() {
		if chunkAddr(&a, c) != chunkAddr(&snap, c) {
			t.Fatalf("Append copied shared chunk %d", c)
		}
	}
	if snap.Len() != n {
		t.Fatalf("snapshot Len %d after the writer's Append, want %d", snap.Len(), n)
	}

	// The first Mut into shared chunk 0 copies it, and the spine, once.
	copy(a.Mut(0), row(width, 0, 1))
	if chunkAddr(&a, 0) == chunkAddr(&snap, 0) {
		t.Fatal("the first Mut into a shared chunk wrote it in place")
	}
	if spineAddr(&a) == spineAddr(&snap) {
		t.Fatal("Mut replaced a chunk in a spine the snapshot shares")
	}
	if !reflect.DeepEqual(snap.At(0), row(width, 0, 0)) {
		t.Fatalf("snapshot row 0 = %v after the writer's Mut, want %v", snap.At(0), row(width, 0, 0))
	}
	if !reflect.DeepEqual(a.At(0), row(width, 0, 1)) {
		t.Fatalf("writer row 0 = %v after its Mut, want %v", a.At(0), row(width, 0, 1))
	}

	// The second Mut into that chunk, and a Mut into another shared chunk,
	// copy no spine; the second copies no chunk either.
	owned, spine := chunkAddr(&a, 0), spineAddr(&a)
	last := chunk - 1
	copy(a.Mut(last), row(width, last, 1))
	if chunkAddr(&a, 0) != owned {
		t.Fatal("the second Mut into a chunk copied it again")
	}
	copy(a.Mut(chunk), row(width, chunk, 1))
	if chunkAddr(&a, 1) == chunkAddr(&snap, 1) {
		t.Fatal("the first Mut into shared chunk 1 wrote it in place")
	}
	if spineAddr(&a) != spine {
		t.Fatal("the writer copied its spine twice for one snapshot")
	}
	for _, i := range []int{0, last, chunk} {
		if !reflect.DeepEqual(snap.At(i), row(width, i, 0)) {
			t.Fatalf("snapshot row %d = %v after the writer's Mut, want %v", i, snap.At(i), row(width, i, 0))
		}
	}

	// A second snapshot makes every chunk and the spine shared again.
	snap2 := a.Snapshot()
	copy(a.Mut(0), row(width, 0, 2))
	if chunkAddr(&a, 0) == owned || spineAddr(&a) == spineAddr(&snap2) {
		t.Fatal("the first Mut after a second snapshot copied no chunk or no spine")
	}
	if !reflect.DeepEqual(snap2.At(0), row(width, 0, 1)) || !reflect.DeepEqual(snap.At(0), row(width, 0, 0)) {
		t.Fatal("a snapshot saw the writer's Mut after the second snapshot")
	}
}

// TestSnapshotReadersRace: readers walk published snapshots while the writer
// rewrites every row through Mut and appends across chunk boundaries. Every
// row a reader sees must be the one its snapshot froze; under -race the
// writer must touch no memory a snapshot reads.
func TestSnapshotReadersRace(t *testing.T) {
	const width, shift, gens = 25, 2, 60
	type pub struct {
		a   Arena[int32]
		gen int
	}
	a := New[int32](width, shift)
	for i := range 10 {
		a.Append(int32Row(width, i, 0))
	}
	var cur atomic.Pointer[pub]
	cur.Store(&pub{a: a.Snapshot()})
	var done atomic.Bool
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				p := cur.Load()
				for i := range p.a.Len() {
					if want := int32Row(width, i, p.gen); !reflect.DeepEqual(p.a.At(i), want) {
						t.Errorf("generation %d row %d = %v, want %v", p.gen, i, p.a.At(i), want)
						return
					}
				}
			}
		}()
	}
	for gen := 1; gen <= gens; gen++ {
		for i := range a.Len() {
			copy(a.Mut(i), int32Row(width, i, gen))
		}
		for range 3 {
			a.Append(int32Row(width, a.Len(), gen))
		}
		cur.Store(&pub{a: a.Snapshot(), gen: gen})
	}
	done.Store(true)
	wg.Wait()
}
