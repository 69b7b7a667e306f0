package multiem

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// The tuple-table chunk size is pure memory layout: every observable — Save
// bytes, Stats, Tuples, Match results, and the effect of further ingest —
// must be bit-identical whether the table keeps one row per chunk, the
// production size, or the whole shard in a single chunk. These tests sweep
// that matrix and rerun the PR 4 crash-recovery property over chunked
// matchers, which together pin the chunked structure as a drop-in for the
// flat table it replaced.

// chunkLayouts is the override sweep: chunk size 1<<(override-1) rows.
// "whole" makes one chunk of 1<<16 rows, larger than any test shard,
// degenerating to the pre-chunking single-slab layout. A chunk is allocated
// whole, so that is 3 MiB a shard at 48 bytes a row.
var chunkLayouts = []struct {
	name     string
	override int
}{
	{"rows=1", 1},
	{"rows=4096", 13},
	{"rows=whole", 17},
}

// TestTupleChunkLayoutIndependence: a matcher built and grown under any
// chunk layout is bit-identical — Save bytes, Stats, Tuples, Match, and one
// more ingest batch — to the production-layout reference, for 1 and 4
// shards.
func TestTupleChunkLayoutIndependence(t *testing.T) {
	d := smallGeo(t)
	batches := randomBatches(d, 6, 8, 99)
	for _, shards := range []int{1, 4} {
		ref, err := BuildMatcher(d, durOpts(shards))
		if err != nil {
			t.Fatal(err)
		}
		for _, rows := range batches {
			if _, err := ref.AddRecords(rows); err != nil {
				t.Fatal(err)
			}
		}
		refRaw := saveBytes(t, ref)
		for _, layout := range chunkLayouts {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, layout.name), func(t *testing.T) {
				opt := durOpts(shards)
				opt.tupleChunkOverride = layout.override
				got, err := BuildMatcher(d, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, rows := range batches {
					if _, err := got.AddRecords(rows); err != nil {
						t.Fatal(err)
					}
				}
				// A fresh reference per layout: assertMatchersIdentical probes
				// both sides with one more ingest batch, which must not leak
				// into the next layout's comparison.
				want, err := LoadMatcher(bytes.NewReader(refRaw), durOpts(shards))
				if err != nil {
					t.Fatal(err)
				}
				assertMatchersIdentical(t, want, got, d)
			})
		}
	}
}

// TestTupleChunkLayoutRecovery reruns the PR 4 crash-recovery property over
// chunked matchers: for every chunk layout, replaying the WAL after a crash
// yields a matcher bit-identical to the uncrashed one. Recovery replay goes
// through the same apply path as live ingest — in-place chunk mutation, no
// COW copies — so this is the property that pins replay and live commits to
// identical persistent state.
func TestTupleChunkLayoutRecovery(t *testing.T) {
	d := smallGeo(t)
	batches := randomBatches(d, 5, 8, 17)
	for _, shards := range []int{1, 4} {
		for _, layout := range chunkLayouts {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, layout.name), func(t *testing.T) {
				opt := durOpts(shards)
				opt.tupleChunkOverride = layout.override
				base, err := BuildMatcher(d, opt)
				if err != nil {
					t.Fatal(err)
				}
				raw := saveBytes(t, base)
				load := func() (*Matcher, error) {
					return LoadMatcher(bytes.NewReader(raw), opt)
				}

				cfg := WALConfig{Dir: t.TempDir(), Fsync: "interval", FsyncInterval: 10 * time.Millisecond}
				live, err := RecoverMatcher(cfg, opt, load)
				if err != nil {
					t.Fatalf("RecoverMatcher (fresh): %v", err)
				}
				uncrashed, err := load()
				if err != nil {
					t.Fatal(err)
				}
				for _, rows := range batches {
					if _, err := live.AddRecords(rows); err != nil {
						t.Fatal(err)
					}
					if _, err := uncrashed.AddRecords(rows); err != nil {
						t.Fatal(err)
					}
				}
				live.CloseWAL()

				recovered, err := RecoverMatcher(cfg, opt, load)
				if err != nil {
					t.Fatalf("RecoverMatcher (recovery): %v", err)
				}
				defer recovered.CloseWAL()
				assertMatchersIdentical(t, uncrashed, recovered, d)
			})
		}
	}
}
