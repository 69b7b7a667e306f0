package hnsw

// Every node owns one fixed link block of 1+2M int32 slots: the link count,
// then up to 2M neighbour indexes, the unused slots zero. Blocks sit in node
// order inside equal chunks behind a chunk-pointer spine, so node i's block is
// arithmetic on i — chunk i>>shift, slot (i mod 1<<shift)·(1+2M) — and a read
// is two dependent loads, the spine entry and the chunk.
//
// The arena is chunked for Clone, which would otherwise deep-copy every link
// per copy-on-write serving view: a clone copies only the spine and marks
// every chunk shared, and the writer copies a chunk the first time it mutates
// into it after a clone. A batch therefore pays O(chunks it dirties), not
// O(live), and consecutive views share every clean chunk.

// linkChunkSlots bounds a chunk at 8 KiB of int32 slots: small enough that a
// batch's dirty-chunk copies stay near the batch's own footprint, large
// enough that a million-node index needs only a few tens of thousands of
// spine entries. A chunk holds the largest power-of-two number of blocks that
// fits, and at least one, so a block larger than the bound gets a chunk of
// its own size.
const linkChunkSlots = 1 << 11

// linkArena is the chunked adjacency storage, a copy-on-write table under the
// contract on multiem's shardView: grow may add blocks past every frozen
// length, but a write inside an existing block goes through mut.
type linkArena struct {
	chunks [][]int32
	// owned[i] reports that no clone shares chunk i, so the writer may
	// mutate it in place. Cleared wholesale by snapshot, set by grow and
	// mut; nil in a snapshot.
	owned []bool
	block int  // slots per node, 1+2M
	shift uint // a chunk holds 1<<shift blocks
}

func newLinkArena(m int) linkArena {
	a := linkArena{block: 1 + 2*m}
	for a.block<<(a.shift+1) <= linkChunkSlots {
		a.shift++
	}
	return a
}

// grow adds zeroed chunks until nodes 0..n-1 all have a block.
func (a *linkArena) grow(n int) {
	for len(a.chunks)<<a.shift < n {
		a.chunks = append(a.chunks, make([]int32, a.block<<a.shift))
		a.owned = append(a.owned, true)
	}
}

// slot returns the offset of node i's block inside its chunk.
func (a *linkArena) slot(i int) int { return (i & (1<<a.shift - 1)) * a.block }

// at returns node i's block, for reads.
func (a *linkArena) at(i int) []int32 {
	s := a.slot(i)
	return a.chunks[i>>a.shift][s : s+a.block]
}

// mut is at for writers, copying the chunk first when a clone shares it so
// pinned readers keep seeing the pre-mutation links.
func (a *linkArena) mut(i int) []int32 {
	ci := i >> a.shift
	if !a.owned[ci] {
		a.chunks[ci] = append([]int32(nil), a.chunks[ci]...)
		a.owned[ci] = true
	}
	s := a.slot(i)
	return a.chunks[ci][s : s+a.block]
}

// prefix returns chunk c cut to the blocks of nodes 0..n-1 it holds: the
// link section of the file format is these prefixes in chunk order.
func (a *linkArena) prefix(c, n int) []int32 {
	return a.chunks[c][:min(n-c<<a.shift, 1<<a.shift)*a.block]
}

// snapshot freezes the arena for a clone — an O(chunks) spine copy with a nil
// owned — and marks every chunk shared, so the writer's next mutation into
// any of them copies it first.
func (a *linkArena) snapshot() linkArena {
	for i := range a.owned {
		a.owned[i] = false
	}
	return linkArena{chunks: append([][]int32(nil), a.chunks...), block: a.block, shift: a.shift}
}
