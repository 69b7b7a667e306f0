package multiem

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
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
// Two hashes a path: v6 over the bytes Save writes; v4 over the same history
// with each Save rendered as version 4 (v4Bytes). Both were re-taken when the
// index lost HNSW's layer hierarchy (matcher version 6, hnsw version 3): the
// graph, and so every later decision and every byte of the index, changed
// then. Before that the v4 hashes had been carried unchanged from the commit
// before the centroid arena moved into the HNSW node store.
func TestSaveBytesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes were taken on amd64; other compilers may fuse multiply-adds")
	}
	for mode, want := range map[string]struct{ v6, v4 string }{
		"scalar": {"909ff2c94fb15105535eafc1079f4543ea195a1fb4b7f3da75f04528ccf04da7", "5e501e572aa1c2a2e311af144d87772577d9d83b2755ab183a1337bda4c102ec"},
		"avx2":   {"b5c2dd1ab927790cfc88424a2bda6e3a179d633b6409e06ab5193b1555c0e8e1", "9cec3a0c5af33336b71cbc431d7ee978cbfb0d57d1634220e311f3537d884e02"},
	} {
		t.Run(mode, func(t *testing.T) {
			prev := vector.Kernels()
			if err := vector.SetKernels(mode); err != nil {
				t.Skip(err)
			}
			defer vector.SetKernels(prev)

			h6, h4 := sha256.New(), sha256.New()
			h := io.MultiWriter(h6, h4)
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
			h6.Write(raw)
			h4.Write(v4Bytes(t, m))
			// Save writes each section's length ahead of it; the length is exact.
			for s, sh := range m.state.Load().shards {
				var sec bytes.Buffer
				if err := sh.writeSection(bufio.NewWriter(&sec)); err != nil {
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
			h6.Write(saveBytes(t, loaded))
			h4.Write(v4Bytes(t, loaded))

			if got := fmt.Sprintf("%x", h6.Sum(nil)); got != want.v6 {
				t.Errorf("observable state moved under %s kernels:\n  got  %s\n  want %s", mode, got, want.v6)
			}
			if got := fmt.Sprintf("%x", h4.Sum(nil)); got != want.v4 {
				t.Errorf("observable state, saved as version 4, moved under %s kernels:\n  got  %s\n  want %s", mode, got, want.v4)
			}
		})
	}
}
