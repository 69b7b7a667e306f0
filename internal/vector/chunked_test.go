package vector

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestChunkedRowsNeverMove: growth allocates one chunk and copies nothing, so
// a row keeps its address for the store's lifetime, the unused capacity
// stays under one chunk, and a frozen snapshot reads the same rows while the
// writer appends across chunk boundaries.
func TestChunkedRowsNeverMove(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const dim = 5
	s := NewChunked(dim)
	var addrs []*float32
	var want [][]float32
	var frozen *Chunked
	var frozenLen int
	for i := 0; i < 4*ChunkRows+9; i++ {
		v := randVecOff(rng, dim, 0)
		if got := s.Append(v); got != i {
			t.Fatalf("Append returned %d, want %d", got, i)
		}
		addrs = append(addrs, &s.At(i)[0])
		want = append(want, v)
		if slack := s.Cap() - s.Len(); slack < 0 || slack >= ChunkRows {
			t.Fatalf("after %d rows: %d unused rows", s.Len(), slack)
		}
		if i == ChunkRows-2 {
			frozen, frozenLen = s.Frozen(), s.Len()
		}
	}
	for i, a := range addrs {
		if &s.At(i)[0] != a {
			t.Fatalf("row %d moved", i)
		}
		if !reflect.DeepEqual(s.At(i), want[i]) {
			t.Fatalf("row %d = %v, want %v", i, s.At(i), want[i])
		}
	}
	if frozen.Len() != frozenLen {
		t.Fatalf("snapshot Len %d, want %d", frozen.Len(), frozenLen)
	}
	for i := 0; i < frozenLen; i++ {
		if &frozen.At(i)[0] != addrs[i] {
			t.Fatalf("snapshot row %d is not the writer's row", i)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("snapshot At past its length must panic")
			}
		}()
		frozen.At(frozenLen)
	}()
}

// TestChunkedChunksRoundTrip: a store's chunk blocks, copied in order into an
// arena sized by GrowExact, rebuild every row — how Save and Load move an
// arena — with no unused capacity at all. Growing the loaded arena moves its
// short last chunk's rows into a full chunk once, leaves every other row
// where it was and a snapshot taken before reading the rows it read.
func TestChunkedChunksRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, rows := range []int{0, 1, ChunkRows - 1, ChunkRows, 2*ChunkRows + 7} {
		s := randChunked(rng, 3, rows)
		var flat []float32
		for c := range s.Chunks() {
			flat = append(flat, s.Chunk(c)...)
		}
		if len(flat) != rows*3 {
			t.Fatalf("%d rows: chunks hold %d floats", rows, len(flat))
		}
		u := NewChunked(3)
		u.GrowExact(rows)
		if u.Len() != rows || u.Cap() != rows {
			t.Fatalf("GrowExact(%d): Len %d, Cap %d", rows, u.Len(), u.Cap())
		}
		for c, rest := 0, flat; c < u.Chunks(); c++ {
			rest = rest[copy(u.Chunk(c), rest):]
		}
		var addrs []*float32
		for i := 0; i < rows; i++ {
			if !reflect.DeepEqual(u.At(i), s.At(i)) {
				t.Fatalf("%d rows: row %d = %v, want %v", rows, i, u.At(i), s.At(i))
			}
			addrs = append(addrs, &u.At(i)[0])
		}
		snap := u.Frozen()
		for i := 0; i < ChunkRows+1; i++ {
			u.Append(randVecOff(rng, 3, 0))
			if slack := u.Cap() - u.Len(); slack < 0 || slack >= ChunkRows {
				t.Fatalf("%d rows loaded, %d appended: %d unused rows", rows, i+1, slack)
			}
		}
		tail := rows &^ (ChunkRows - 1)
		for i := 0; i < rows; i++ {
			if !reflect.DeepEqual(u.At(i), s.At(i)) || !reflect.DeepEqual(snap.At(i), s.At(i)) {
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
