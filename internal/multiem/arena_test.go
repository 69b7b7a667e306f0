package multiem

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/vector"
)

// arenaMark records where a shard keeps its rows before a batch — the
// address of each row's first mask word, for the rows in full-sized chunks
// of its data arena, of the entity table and of the index's node table — and
// the data arena they belong to (a reclamation replaces it).
type arenaMark struct {
	data        *vector.RowData
	ents, nodes map[int]*uint32
}

// markRows returns the addresses of s's rows in full-sized chunks. A loaded
// arena's last chunk is sized to its rows (arena.Arena.GrowExact) and moves
// once when it grows; the rows of every full-sized chunk must never move.
func markRows(s *vector.SparseRows) map[int]*uint32 {
	rows := map[int]*uint32{}
	d := s.Data()
	full := fullRows(d.Elems(), d.Cap(), d.ChunkElems())
	for i := range s.Len() {
		if mask, vals := s.Row(i); s.Offset(i)+len(mask)+len(vals) <= full {
			rows[i] = &mask[0]
		}
	}
	return rows
}

// markArenas takes sh's mark.
func markArenas(sh *shard) arenaMark {
	return arenaMark{data: sh.entVecs.Data(), ents: markRows(sh.entVecs), nodes: markRows(sh.index.Vectors())}
}

// fullRows is how many of the n rows of an arena of capacity c, in chunks
// of chunk rows, sit in full-sized chunks: all of them, unless c is not a
// whole number of chunks.
func fullRows(n, c, chunk int) int {
	if c%chunk != 0 {
		return c &^ (chunk - 1)
	}
	return n
}

// checkArenas holds each shard's growing stores — one data arena, under the
// entity table and the index's node table, which share it — to the chunked
// store's contract after a batch: under one chunk of unused words in the
// arena and of unused descriptors a table, and every row marked before the
// batch at its old address while the arena is the same one (node rows only
// while the index is the same one too).
func checkArenas(t *testing.T, when string, m *Matcher, marks []arenaMark) {
	t.Helper()
	for s, sh := range m.shards {
		if d := sh.entVecs.Data(); d != sh.index.Vectors().Data() {
			t.Fatalf("%s: shard %d's entity and node rows are on two data arenas", when, s)
		} else if slack := d.Cap() - d.Elems(); slack < 0 || slack >= d.ChunkElems() {
			t.Fatalf("%s: shard %d's data arena holds %d words with room for %d", when, s, d.Elems(), d.Cap())
		}
		for kind, st := range map[string]*vector.SparseRows{"entity": sh.entVecs, "node": sh.index.Vectors(), "centroid": sh.cents} {
			if slack := st.Cap() - st.Len(); slack < 0 || slack >= vector.DescChunkRows {
				t.Fatalf("%s: shard %d's %s descriptor table holds %d rows with room for %d", when, s, kind, st.Len(), st.Cap())
			}
		}
		if marks == nil || sh.entVecs.Data() != marks[s].data {
			continue
		}
		moved := func(kind string, st *vector.SparseRows, rows map[int]*uint32) {
			for i, p := range rows {
				if mask, _ := st.Row(i); &mask[0] != p {
					t.Fatalf("%s: shard %d's %s row %d moved", when, s, kind, i)
				}
			}
		}
		moved("entity", sh.entVecs, marks[s].ents)
		moved("node", sh.index.Vectors(), marks[s].nodes)
	}
}

// TestArenaRowsNeverMove drives a two-shard matcher through batches that push
// each shard's data arena — entity rows and node rows, interleaved — across
// several chunk boundaries (a chunk holds 8192 words, some 100 Geo rows of
// either kind), with a save/load round trip halfway: after every batch the
// arena's unused capacity is under one chunk, and no row of a full chunk has
// moved. A view pinned before a batch is read from another goroutine while
// the batch appends across a boundary, and reads the same rows after it
// (make race runs this under the race detector).
func TestArenaRowsNeverMove(t *testing.T) {
	d := mustGeo(t, 0.01, 5)
	opt := durOpts(2)
	m, err := BuildMatcher(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkArenas(t, "build", m, nil)
	// Near-duplicates of another dataset's records are mostly new tuples to
	// this base, so the node arenas grow as well as the entity arenas.
	batches := randomBatches(mustGeo(t, 0.2, 6), 192, 16, 17)
	// crossings[s] counts the batches that appended shard s's rows across a
	// chunk boundary of its data arena.
	crossings := make([]int, 2)
	for b, rows := range batches {
		if b == len(batches)/2 {
			m = mustLoad(t, saveBytes(t, m), opt)
			checkArenas(t, "load", m, nil)
		}
		marks := make([]arenaMark, len(m.shards))
		for s, sh := range m.shards {
			marks[s] = markArenas(sh)
		}
		before := m.state.Load()
		want := viewRows(before)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		var readErr error
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := viewRows(before); !slices.EqualFunc(got, want, slices.Equal) {
					readErr = fmt.Errorf("batch %d: a pinned view read other rows while the writer appended", b)
					return
				}
			}
		}()
		if _, err := m.AddRecords(rows); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()
		if readErr != nil {
			t.Fatal(readErr)
		}
		checkArenas(t, fmt.Sprintf("batch %d", b), m, marks)
		for s, sh := range m.shards {
			now, then := sh.entVecs.Data(), before.shards[s].entVecs.Data()
			if now == marks[s].data && now.Elems()/now.ChunkElems() > then.Elems()/now.ChunkElems() {
				crossings[s]++
			}
		}
		if got := viewRows(before); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("batch %d: a view pinned before it reads other rows after it", b)
		}
	}
	t.Logf("data arena chunk boundaries crossed per shard: %v", crossings)
	for s, c := range crossings {
		if c < 5 {
			t.Fatalf("shard %d crossed %d chunk boundaries of its data arena, want several", s, c)
		}
	}
}

// viewRows reads every entity and node row of a published view, and the
// distance from each shard's first entity row to every node through the
// gather kernel.
func viewRows(v *matcherView) [][]float32 {
	var rows [][]float32
	for _, sv := range v.shards {
		first := len(rows)
		for i := range sv.entVecs.Len() {
			row := make([]float32, sv.entVecs.Dim())
			sv.entVecs.CopyTo(row, i)
			rows = append(rows, row)
		}
		nodes := make([]int32, sv.index.Len())
		for i := range nodes {
			row := make([]float32, sv.index.Dim())
			sv.index.Vectors().CopyTo(row, i)
			rows = append(rows, row)
			nodes[i] = int32(i)
		}
		if sv.entVecs.Len() > 0 && len(nodes) > 0 {
			dists := make([]float32, len(nodes))
			sv.index.Dists(rows[first], nodes, dists)
			rows = append(rows, dists)
		}
	}
	return rows
}
