package vector

import (
	"math/rand"
	"testing"
)

// TestChunkedRowsNeverMove: what Chunked adds to its arena (whose storage
// contract internal/arena tests). At is range-checked — a frozen snapshot
// refuses a row past its length however far the writer has grown — and
// returns a row clamped to its capacity, so appending to it cannot clobber
// the next row; a row's address is the one the writer stored it at.
func TestChunkedRowsNeverMove(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randChunked(rng, 5, ChunkRows-1)
	frozen := s.Frozen()
	for i := 0; i < ChunkRows+3; i++ {
		s.Append(randVecOff(rng, 5, 0))
	}
	for i := 0; i < frozen.Len(); i++ {
		r := frozen.At(i)
		if &r[0] != &s.At(i)[0] || cap(r) != 5 {
			t.Fatalf("snapshot row %d: address or capacity differs from the writer's (cap %d)", i, cap(r))
		}
	}
	mustPanic := func(i int) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("snapshot At(%d) past its length %d must panic", i, frozen.Len())
			}
		}()
		frozen.At(i)
	}
	mustPanic(frozen.Len())
	mustPanic(-1)
}
