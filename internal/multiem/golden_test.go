package multiem

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/table"
	"repro/internal/vector"
)

// absorbRows returns one row per pipeline tuple (up to width): the values of
// the tuple's first member. Re-adding them absorbs every row into its own
// tuple and refreshes that tuple's centroid, leaving one dead centroid row
// per row per batch — the fastest way to drive a shard into a reclamation.
func absorbRows(m *Matcher, d *table.Dataset, width int) [][]string {
	byID := d.EntityByID()
	tuples := m.Result().Tuples
	if width > len(tuples) {
		width = len(tuples)
	}
	rows := make([][]string, width)
	for i := range rows {
		rows[i] = byID[tuples[i][0]].Values
	}
	return rows
}

// reclaimEveryShard re-adds rows until every shard has reclaimed its dead
// centroid rows at least once — moved its rows to a fresh data arena —
// reporting each batch's results to visit. It returns the number of batches.
func reclaimEveryShard(t *testing.T, m *Matcher, rows [][]string, visit func([]AddResult)) int {
	t.Helper()
	arenas := make([]*vector.RowData, len(m.shards))
	for s, sh := range m.shards {
		arenas[s] = sh.entVecs.Data()
	}
	for batch := 0; ; batch++ {
		done := true
		for s, sh := range m.shards {
			done = done && sh.entVecs.Data() != arenas[s]
		}
		if done {
			return batch
		}
		if batch == 400 {
			t.Fatalf("no reclamation on every shard after %d absorb batches", batch)
		}
		res, err := m.AddRecords(rows)
		if err != nil {
			t.Fatal(err)
		}
		visit(res)
	}
}

// TestSaveBytesGolden pins everything a client or a file can observe of a
// fixed history — every AddRecords result, a set of Match replies, and the
// Save bytes before and after a Save/Load/ingest leg — to hashes. The
// history covers batch-formed tuples, absorptions, a reclamation on both
// shards and dead centroid rows at save time; a change to which vectors
// enter the index, in which order, or to any decision shows up here. Both
// kernel paths must give the one hash: the portable kernels sum in the
// assembly's order, so they have its bits.
//
// One hash, over the results, the replies and the bytes Save writes. It was
// last re-taken when the graph stopped indexing a node per centroid version
// (matcher version 9): a tuple keeps its first centroid as its one node,
// plus each absorbed row far from all its nodes, and its current centroid
// is a row of the centroid table. The graph, hence the candidates every
// decision and reply re-ranks, and every byte of the index changed. Before
// that, it was re-taken when the exact two-table join began to score its pairs
// through the bitmask gather, as the HNSW leg does: the build's confidences
// moved in their last bits, so the tuples' maxJoinDist words in the file
// did, and nothing else (a Music-20 matcher saved with every maxJoinDist
// zeroed gave the same bytes before and after). Before that, it was
// re-taken when the files' rows became bitmask rows (matcher version 8, hnsw
// version 4); the history hashed with each file rendered back as version 7
// gave the version-7 hash then pinned, so no decision and no other byte
// moved. That had been re-taken when the matcher file gained M and the
// probes (version 7), with the same check against version 6, and before that
// when the index lost HNSW's layer hierarchy (matcher version 6, hnsw
// version 3): the graph, and so every later decision and every byte of the
// index, changed then.
func TestSaveBytesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the hash was taken on amd64; no test runs the arm64 bits")
	}
	const want = "49cb90e753ea519ead85b5a6c14a477ddde333a6b3c282b0b3dd048cf9f2638c"
	for _, mode := range []string{"scalar", "avx2"} {
		t.Run(mode, func(t *testing.T) {
			vector.ForceKernels(t, mode)

			h := sha256.New()
			addAll := func(m *Matcher, batches [][][]string) {
				for _, rows := range batches {
					res, err := m.AddRecords(rows)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(h, "%+v\n", res)
				}
			}
			d := smallGeo(t)
			m, err := BuildMatcher(d, durOpts(2))
			if err != nil {
				t.Fatal(err)
			}
			addAll(m, randomBatches(d, 6, 8, 7))
			reclaimEveryShard(t, m, absorbRows(m, d, 40), func(res []AddResult) { fmt.Fprintf(h, "%+v\n", res) })
			addAll(m, randomBatches(d, 2, 8, 8))
			if !recentred(m) {
				t.Fatal("history leaves no dead centroid rows at save time")
			}
			raw := saveBytes(t, m)
			h.Write(raw)
			// Save writes each section's length ahead of it; the length is exact.
			for s, sh := range m.state.Load().shards {
				var sec bytes.Buffer
				w := bufio.NewWriter(&sec)
				if err := sh.writeSection(w); err != nil {
					t.Fatal(err)
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				if got := sh.sectionSize(); got != sec.Len() {
					t.Fatalf("shard %d: sectionSize=%d, writeSection wrote %d bytes", s, got, sec.Len())
				}
			}

			loaded, err := LoadMatcher(bytes.NewReader(raw), durOpts(2))
			if err != nil {
				t.Fatal(err)
			}
			post := randomBatches(d, 4, 8, 9)
			addAll(loaded, post)
			for _, rows := range post {
				cands, err := loaded.Match(rows[0], 5)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%+v\n", cands)
			}
			h.Write(saveBytes(t, loaded))

			if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
				t.Errorf("observable state moved under %s kernels:\n  got  %s\n  want %s", mode, got, want)
			}
		})
	}
}
