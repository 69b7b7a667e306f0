package hnsw

import "repro/internal/arena"

// Every node owns one fixed link block of 1+2M int32 slots: the link count,
// then up to 2M neighbour indexes, the unused slots zero. The blocks are the
// rows of a copy-on-write arena (arena.Arena) in node order, so node i's block
// is arithmetic on i and a read is two dependent loads, the spine entry and
// the chunk. A Clone snapshots the arena instead of copying every link, and
// the writer copies a chunk the first time it mutates into it after a clone:
// a batch pays O(chunks it dirties), not O(live).

// linkChunkSlots bounds a chunk at 8 KiB of int32 slots: small enough that a
// batch's dirty-chunk copies stay near the batch's own footprint, large
// enough that a million-node index needs only a few tens of thousands of
// spine entries.
const linkChunkSlots = 1 << 11

// newLinks returns an empty link arena for blocks of 1+2M slots. A chunk
// holds the largest power-of-two number of blocks that fits linkChunkSlots,
// and at least one, so a block larger than the bound gets a chunk of its own
// size.
func newLinks(m int) arena.Arena[int32] {
	block := 1 + 2*m
	var shift uint
	for block<<(shift+1) <= linkChunkSlots {
		shift++
	}
	return arena.New[int32](block, shift)
}
