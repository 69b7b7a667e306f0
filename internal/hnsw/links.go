package hnsw

// The adjacency arena used to be one flat []int32 that Clone() deep-copied in
// full — O(live links) per copy-on-write serving view, the dominant epoch
// commit cost at large indexes. It is now chunked with per-chunk ownership:
// node regions live inside fixed-size chunks behind a chunk-pointer spine, a
// clone copies only the spine and marks every chunk shared, and the writer
// copies a chunk the first time it mutates into it after a clone. A batch
// therefore pays O(chunks it dirties), not O(live), and consecutive views
// share every clean chunk.
//
// Offsets encode the chunk address: off = chunk<<linkOffShift | slot. A node
// region never straddles chunks (alloc opens a new chunk instead; a region
// larger than a whole chunk gets a dedicated oversized chunk), so the old
// flat-arena arithmetic — block start = region offset + constant — still
// holds within the slot field, and a block read is one extra indirection.

const (
	// linkChunkShift sizes a regular chunk at 1<<linkChunkShift int32 slots
	// (8 KiB). Small enough that a batch's dirty-chunk copies stay near the
	// batch's own footprint, large enough that a million-node index needs
	// only a few hundred thousand spine entries.
	linkChunkShift = 11
	linkChunkSlots = 1 << linkChunkShift

	// linkOffShift splits an encoded offset into chunk index (high bits) and
	// slot within the chunk (low bits). 32 slot bits cover any oversized
	// dedicated chunk a plausible config could demand.
	linkOffShift   = 32
	linkWithinMask = 1<<linkOffShift - 1
)

// linkArena is the chunked adjacency storage, a copy-on-write table under the
// contract on multiem's shardView: alloc may hand out the zeroed tail of a
// shared chunk, but a write inside an existing region goes through mutBlock.
type linkArena struct {
	chunks [][]int32
	// owned[i] reports that no clone shares chunk i, so the writer may
	// mutate it in place. Cleared wholesale by snapshot, set by newChunk
	// and mutBlock; nil in a snapshot.
	owned []bool
	// tail is the number of used slots in the last chunk; regions are
	// allocated from it and never freed.
	tail int
}

// alloc reserves a zeroed region of size slots and returns its encoded
// offset. The region never straddles a chunk boundary.
func (a *linkArena) alloc(size int) int64 {
	if size > linkChunkSlots {
		// A region larger than a regular chunk (huge M or node level) gets a
		// dedicated chunk of exactly its size; the slot field stays 0.
		return a.newChunk(size)
	}
	if n := len(a.chunks); n == 0 || a.tail+size > len(a.chunks[n-1]) {
		return a.newChunk(size)
	}
	ci := len(a.chunks) - 1
	off := int64(ci)<<linkOffShift | int64(a.tail)
	a.tail += size
	return off
}

// newChunk opens a fresh chunk holding one region of size slots (regular
// chunks are linkChunkSlots long; oversized regions get exactly their size).
func (a *linkArena) newChunk(size int) int64 {
	ci := len(a.chunks)
	a.chunks = append(a.chunks, make([]int32, max(size, linkChunkSlots)))
	a.owned = append(a.owned, true)
	a.tail = size
	return int64(ci) << linkOffShift
}

// block returns the arena from the encoded offset onward, for reads. The
// returned slice runs to the end of the offset's chunk, which the caller's
// region is fully inside.
func (a *linkArena) block(off int64) []int32 {
	return a.chunks[off>>linkOffShift][off&linkWithinMask:]
}

// mutBlock is block for writers, copying the chunk first when a clone shares
// it so pinned readers keep seeing the pre-mutation links.
func (a *linkArena) mutBlock(off int64) []int32 {
	ci := int(off >> linkOffShift)
	if !a.owned[ci] {
		a.chunks[ci] = append([]int32(nil), a.chunks[ci]...)
		a.owned[ci] = true
	}
	return a.chunks[ci][off&linkWithinMask:]
}

// snapshot freezes the arena for a clone — an O(chunks) spine copy with a nil
// owned — and marks every chunk shared, so the writer's next mutation into
// any of them copies it first.
func (a *linkArena) snapshot() linkArena {
	for i := range a.owned {
		a.owned[i] = false
	}
	return linkArena{chunks: append([][]int32(nil), a.chunks...), tail: a.tail}
}
