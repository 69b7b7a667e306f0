package multiem

import "repro/internal/arena"

// The tuple table is a copy-on-write arena (arena.Arena) of one tupleState a
// row, under the contract on shardView: a batch pays for the chunks it
// dirties — bounded by its own row count — and consecutive epoch views share
// every clean chunk.

// defaultTupleChunkShift sizes production chunks at 1<<10 = 1024 rows
// (~48 KiB): small enough that a batch's worst-case dirty-chunk copies stay
// near the batch's own footprint even when its absorptions scatter, large
// enough that a million-row shard's spine is ~1k pointers.
const defaultTupleChunkShift = 10

// tupleTable is the chunked table: the writer's copy in a shard, a snapshot
// of it in a published view.
type tupleTable struct{ arena.Arena[tupleState] }

func newTupleTable(shift uint) tupleTable {
	return tupleTable{arena.New[tupleState](1, shift)}
}

// at returns row i for reading. In a snapshot the pointer stays valid for
// the snapshot's lifetime.
func (t *tupleTable) at(i int) *tupleState { return &t.At(i)[0] }

// mut returns row i for writing, copying its chunk first when a snapshot
// shares it.
func (t *tupleTable) mut(i int) *tupleState { return &t.Mut(i)[0] }

// append adds a row at the next local index and returns that index.
func (t *tupleTable) append(ts tupleState) int {
	i := t.Len()
	t.Grow(1)
	*t.at(i) = ts
	return i
}

// each visits every row in local order.
func (t *tupleTable) each(f func(ts *tupleState)) {
	for c := range t.Chunks() {
		rows := t.Chunk(c)
		for j := range rows {
			f(&rows[j])
		}
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
