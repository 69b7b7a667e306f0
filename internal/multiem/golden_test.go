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
// tuple and refreshes that tuple's centroid, leaving one stale index entry
// per row per batch — the fastest way to drive a shard into compaction.
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

// compactEveryShard re-adds rows until every shard has compacted at least
// once, reporting each batch's results to visit.
func compactEveryShard(t *testing.T, m *Matcher, rows [][]string, visit func([]AddResult)) {
	t.Helper()
	for batch := 0; ; batch++ {
		done := true
		_, per, _ := m.StatsWithShards()
		for _, ss := range per {
			done = done && ss.Compactions > 0
		}
		if done {
			return
		}
		if batch == 400 {
			t.Fatalf("no compaction on every shard after %d absorb batches: %+v", batch, per)
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
// history covers batch-formed tuples, absorptions, a compaction on both
// shards and stale entries at save time; a change to which vectors enter the
// index, in which order, or to any decision shows up here, per kernel path
// (the AVX2 kernels reduce in a different order than the scalar ones).
//
// One hash a path, over the results, the replies and the bytes Save writes.
// It was re-taken when the matcher file gained M and the probes (version 7);
// the history's bytes outside those header fields, hashed with each file
// rendered back as version 6 (v6Bytes), gave the version-6 hashes then
// pinned on both paths, so no decision and no other byte moved. Those had
// been re-taken when the index lost HNSW's layer hierarchy (matcher version
// 6, hnsw version 3): the graph, and so every later decision and every byte
// of the index, changed then.
func TestSaveBytesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes were taken on amd64; other compilers may fuse multiply-adds")
	}
	for mode, want := range map[string]string{
		"scalar": "9fd6f42b0623130b39e22c63d6ae950ae2ff819b54063926f7bb2ea88695ed83",
		"avx2":   "2a02f83318145c320651f1ea383a42ef7cb8f884bedfdc809bc81a86def81488",
	} {
		t.Run(mode, func(t *testing.T) {
			prev := vector.Kernels()
			if err := vector.SetKernels(mode); err != nil {
				t.Skip(err)
			}
			defer vector.SetKernels(prev)

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
			compactEveryShard(t, m, absorbRows(m, d, 40), func(res []AddResult) { fmt.Fprintf(h, "%+v\n", res) })
			addAll(m, randomBatches(d, 2, 8, 8))
			if s := m.Stats(); s.IndexSize == s.Live {
				t.Fatal("history leaves no stale entries at save time")
			}
			raw := saveBytes(t, m)
			h.Write(raw)
			// Save writes each section's length ahead of it; the length is exact.
			for s, sh := range m.state.Load().shards {
				var sec bytes.Buffer
				if err := sh.writeSection(bufio.NewWriter(&sec), make([]float32, 3*m.dim)); err != nil {
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
