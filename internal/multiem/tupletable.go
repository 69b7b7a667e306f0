package multiem

// The tuple table is a copy-on-write table under the contract on shardView:
// a batch pays for the chunks it dirties — bounded by its own row count — and
// consecutive epoch views share every clean chunk.
//
// Row i lives at chunks[i>>shift][i&mask]. Chunks grow geometrically up to
// the chunk size, so a table whose configured chunk holds the whole shard
// (the compatibility layout the property tests pin) does not pre-allocate
// the maximum.

// defaultTupleChunkShift sizes production chunks at 1<<10 = 1024 rows
// (~48 KiB): small enough that a batch's worst-case dirty-chunk copies stay
// near the batch's own footprint even when its absorptions scatter, large
// enough that a million-row shard's spine is ~1k pointers.
const defaultTupleChunkShift = 10

// tupleTable is the chunked table. owned[i] reports that no snapshot shares
// chunk i, so the writer may mutate it in place; snapshot clears every flag,
// mut and the growth paths set them, and a snapshot's owned is nil.
type tupleTable struct {
	chunks [][]tupleState
	owned  []bool
	shift  uint
	n      int
}

func (t *tupleTable) len() int { return t.n }

// at returns row i for reading. In a snapshot the pointer stays valid for
// the snapshot's lifetime: the writer never mutates a chunk a snapshot
// shares, it replaces its own spine entry with a copy.
func (t *tupleTable) at(i int) *tupleState {
	return &t.chunks[i>>t.shift][i&(1<<t.shift-1)]
}

// each visits every row in local order. Chunk lengths sum exactly to n by
// construction, so the walk needs no per-row bounds math.
func (t *tupleTable) each(f func(local int, ts *tupleState)) {
	i := 0
	for _, c := range t.chunks {
		for j := range c {
			f(i, &c[j])
			i++
		}
	}
}

// mut returns row i for writing, copying the chunk first when a snapshot
// shares it so pinned readers keep seeing the pre-batch row.
func (t *tupleTable) mut(i int) *tupleState {
	ci := i >> t.shift
	if !t.owned[ci] {
		old := t.chunks[ci]
		c := make([]tupleState, len(old), cap(old))
		copy(c, old)
		t.chunks[ci] = c
		t.owned[ci] = true
	}
	return &t.chunks[ci][i&(1<<t.shift-1)]
}

// append adds a row at the next local index and returns that index.
func (t *tupleTable) append(ts tupleState) int {
	i := t.n
	ci := i >> t.shift
	if ci == len(t.chunks) {
		t.chunks = append(t.chunks, nil)
		t.owned = append(t.owned, true)
	}
	c := t.chunks[ci]
	if len(c) == cap(c) {
		// Grow geometrically within the chunk: a fresh backing array is
		// owned by definition, and for very large configured chunks this is
		// what keeps allocation proportional to rows actually present.
		ncap := 2 * cap(c)
		if ncap < 64 {
			ncap = 64
		}
		if m := 1 << t.shift; ncap > m {
			ncap = m
		}
		nc := make([]tupleState, len(c), ncap)
		copy(nc, c)
		c = nc
		t.owned[ci] = true
	}
	t.chunks[ci] = append(c, ts)
	t.n++
	return i
}

// snapshot freezes the table — an O(chunks) spine copy with a nil owned —
// and marks every chunk shared, so the writer's next mutation into any of
// them copies it first.
func (t *tupleTable) snapshot() tupleTable {
	for i := range t.owned {
		t.owned[i] = false
	}
	return tupleTable{
		chunks: append([][]tupleState(nil), t.chunks...),
		shift:  t.shift,
		n:      t.n,
	}
}

// tupleChunkShift resolves the matcher's tuple-table chunk size: the
// production default unless the unexported test override names another
// power of two.
func (o *Options) tupleChunkShift() uint {
	if o.tupleChunkOverride > 0 {
		return uint(o.tupleChunkOverride - 1)
	}
	return defaultTupleChunkShift
}
