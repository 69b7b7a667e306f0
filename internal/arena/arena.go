// Package arena is the one storage type behind the tables an online matcher
// grows for its lifetime and shares with the views it publishes: a shard's
// entity embeddings and tuple table, and an HNSW index's node vectors and
// link blocks.
//
// An Arena holds fixed-width rows in equal chunks of 1<<shift rows behind a
// chunk spine, so row i is row i mod 1<<shift of chunk i>>shift, found by
// arithmetic on i. Chunks are allocated whole and never resized: growth
// allocates a zeroed chunk and copies nothing, so a row never moves, and the
// unused capacity is the last chunk's tail. The one exception is a loaded
// arena (GrowExact), whose last chunk holds exactly its rows until the next
// growth moves them, once, into a larger chunk.
//
// Sharing with a published view is copy-on-write at chunk grain:
//
//   - Snapshot returns a read-only copy in O(1): its length and a clipped
//     spine header, sharing every chunk and the spine's backing array. It
//     marks every chunk shared and the spine shared.
//   - Mut copies a shared chunk before the first write into it, and Grow
//     replaces a shared short last chunk; before either replaces a spine
//     entry the writer copies a shared spine, once per snapshot.
//   - Growth writes only rows and spine entries past every snapshot's
//     length, in place, and At's rows past a snapshot's length may be
//     written through At: no snapshot can read them.
//
// So a snapshot costs O(1), an append-only writer never copies a spine or a
// chunk, and a writer that rewrites rows pays once per batch for the spine
// and once for each chunk it dirties. An Arena is not safe for concurrent
// mutation; a snapshot may be read from any number of goroutines while its
// writer goes on.
package arena

import "slices"

// Arena is a chunked table of rows of Width() elements of T; see the package
// comment. The zero value is not usable: make one with New.
type Arena[T any] struct {
	chunks [][]T
	// owned[c] reports that no snapshot shares chunk c, so the writer may
	// write any row of it. Snapshot clears it; a snapshot's is nil.
	owned []bool
	// shared reports that a snapshot holds the spine's backing array, so an
	// entry below its length may not be replaced in place.
	shared bool
	width  int
	shift  uint
	n      int
}

// New returns an empty arena of rows of width elements, in chunks of
// 1<<shift rows.
func New[T any](width int, shift uint) Arena[T] {
	if width <= 0 {
		panic("arena: row width must be positive")
	}
	return Arena[T]{width: width, shift: shift}
}

// Len reports the number of rows.
func (a *Arena[T]) Len() int { return a.n }

// Width reports the number of elements in a row.
func (a *Arena[T]) Width() int { return a.width }

// Cap reports how many rows the allocated chunks hold: Len() rounded up to a
// whole chunk, or Len() itself after GrowExact.
func (a *Arena[T]) Cap() int {
	c := len(a.chunks) - 1
	if c < 0 {
		return 0
	}
	return c<<a.shift + len(a.chunks[c])/a.width
}

// Spine returns the chunk spine, for a kernel that addresses rows itself:
// row i starts (i mod 1<<shift)·Width() elements into chunk i>>shift. The
// caller must not modify it.
func (a *Arena[T]) Spine() [][]T { return a.chunks }

// At returns row i, for reading, or for writing a row no snapshot can read.
// It does not check i against Len(): a row past Len() in an allocated chunk
// reads as zero, and one past Cap() panics on the slice bounds.
func (a *Arena[T]) At(i int) []T {
	s := (i & (1<<a.shift - 1)) * a.width
	return a.chunks[i>>a.shift][s : s+a.width]
}

// Mut returns row i for writing. If a snapshot shares the row's chunk, the
// writer's spine gets a private copy of the chunk first, so every snapshot
// keeps reading the row as it was.
func (a *Arena[T]) Mut(i int) []T {
	if c := i >> a.shift; !a.owned[c] {
		a.replace(c, slices.Clone(a.chunks[c]))
	}
	return a.At(i)
}

// replace makes chunk the writer's owned chunk c, copying the spine first if
// a snapshot shares it.
func (a *Arena[T]) replace(c int, chunk []T) {
	if a.shared {
		a.chunks = slices.Clone(a.chunks)
		a.shared = false
	}
	a.chunks[c] = chunk
	a.owned[c] = true
}

// Append copies row into a new row and returns its index. row must have
// Width() elements.
func (a *Arena[T]) Append(row []T) int {
	i := a.n
	a.Grow(1)
	copy(a.At(i), row)
	return i
}

// Grow extends the arena by rows zero rows, allocating the whole chunks they
// need.
func (a *Arena[T]) Grow(rows int) {
	a.n += max(rows, 0)
	whole := a.width << a.shift
	if c := len(a.chunks) - 1; c >= 0 && a.n > a.Cap() && len(a.chunks[c]) < whole {
		// GrowExact's short last chunk: its rows move to a whole one.
		chunk := make([]T, whole)
		copy(chunk, a.chunks[c])
		a.replace(c, chunk)
	}
	for len(a.chunks)<<a.shift < a.n {
		a.chunks = append(a.chunks, make([]T, whole))
		a.owned = append(a.owned, true)
	}
}

// GrowExact extends the arena by rows zero rows for a loader, which fills
// them from bytes it has already checked: whole chunks, and a last one that
// holds exactly the rows so far, so the allocation is never larger than what
// fills it. A short last chunk that the new rows extend moves, once, into
// one sized to its rows (a loader that fills one arena in two steps).
func (a *Arena[T]) GrowExact(rows int) {
	end := a.n + max(rows, 0)
	if c := len(a.chunks) - 1; c >= 0 && end > a.Cap() && len(a.chunks[c]) < a.width<<a.shift {
		chunk := make([]T, min(end-c<<a.shift, 1<<a.shift)*a.width)
		copy(chunk, a.chunks[c])
		a.replace(c, chunk)
	}
	for len(a.chunks)<<a.shift < end {
		take := min(end-len(a.chunks)<<a.shift, 1<<a.shift)
		a.chunks = append(a.chunks, make([]T, take*a.width))
		a.owned = append(a.owned, true)
	}
	a.n = end
}

// Chunks reports the number of allocated chunks.
func (a *Arena[T]) Chunks() int { return len(a.chunks) }

// Chunk returns chunk c cut to its rows below Len(), row after row: a
// serializer writes the arena, or fills a grown one, as these blocks in chunk
// order. The caller may write only rows no snapshot can read.
func (a *Arena[T]) Chunk(c int) []T {
	return a.chunks[c][:min(a.n-c<<a.shift, 1<<a.shift)*a.width]
}

// Snapshot returns a read-only copy of the arena in O(1) and marks every
// chunk and the spine shared, so the writer's next Mut into any of them
// copies it first. The caller must not write the snapshot.
func (a *Arena[T]) Snapshot() Arena[T] {
	clear(a.owned)
	a.shared = true
	return Arena[T]{chunks: slices.Clip(a.chunks), width: a.width, shift: a.shift, n: a.n}
}
