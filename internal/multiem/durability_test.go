package multiem

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/embed"
	"repro/internal/table"
	"repro/internal/wal"
)

// durOpts fixes a shard count so the WAL topology is deterministic across
// the test matrix (GOMAXPROCS varies by machine).
func durOpts(shards int) Options {
	o := geoOpts()
	o.Shards = shards
	return o
}

// buildBase builds the deterministic pre-WAL matcher the recovery tests
// start from.
func buildBase(t testing.TB, d *table.Dataset, shards int) *Matcher {
	t.Helper()
	m, err := BuildMatcher(d, durOpts(shards))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// baseLoader builds the base matcher once and returns a loader that
// rehydrates exact copies from its Save bytes — the moral equivalent of the
// server's -load-index base, and far cheaper than re-running the pipeline
// for every subtest (the recovery matrix uses dozens of base states).
func baseLoader(t *testing.T, d *table.Dataset, shards int) func() (*Matcher, error) {
	t.Helper()
	raw := saveBytes(t, buildBase(t, d, shards))
	return func() (*Matcher, error) {
		return LoadMatcher(bytes.NewReader(raw), durOpts(shards))
	}
}

// randomBatches derives N seeded batches: a mix of near-duplicates of
// existing entities (absorptions), mutual duplicates (intra-batch chaining),
// and fresh singletons — every decision branch of AddRecords.
func randomBatches(d *table.Dataset, n, rowsPer int, seed int64) [][][]string {
	rng := rand.New(rand.NewSource(seed))
	byID := d.EntityByID()
	var ids []int
	for id := range byID {
		ids = append(ids, id)
	}
	// Map iteration order is random: sort for determinism.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	batches := make([][][]string, n)
	for b := range batches {
		rows := make([][]string, rowsPer)
		for r := range rows {
			switch rng.Intn(3) {
			case 0: // near-duplicate of an existing entity
				e := byID[ids[rng.Intn(len(ids))]]
				row := append([]string(nil), e.Values...)
				row[0] = strings.ToLower(row[0])
				rows[r] = row
			case 1: // duplicate of an earlier row in this batch, if any
				if r > 0 {
					rows[r] = append([]string(nil), rows[r-1]...)
				} else {
					rows[r] = []string{fmt.Sprintf("solo %d %d", b, r), "1.0", "2.0"}
				}
			default: // fresh singleton
				rows[r] = []string{fmt.Sprintf("fresh place %d-%d-%d", b, r, rng.Intn(999)), fmt.Sprintf("%d.5", rng.Intn(80)), fmt.Sprintf("-%d.25", rng.Intn(60))}
			}
		}
		batches[b] = rows
	}
	return batches
}

// saveBytes captures a matcher's exact persistent state.
func saveBytes(t testing.TB, m *Matcher) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertMatchersIdentical asserts the two matchers are bit-identical: Save
// bytes, Stats, Tuples, Match results on probes, and the results of one more
// identical AddRecords batch.
func assertMatchersIdentical(t *testing.T, want, got *Matcher, d *table.Dataset) {
	t.Helper()
	if w, g := saveBytes(t, want), saveBytes(t, got); !bytes.Equal(w, g) {
		t.Fatalf("Save bytes differ: %d vs %d bytes", len(w), len(g))
	}
	if w, g := want.Stats(), got.Stats(); fmt.Sprintf("%+v", w) != fmt.Sprintf("%+v", g) {
		t.Fatalf("Stats differ:\n  want %+v\n  got  %+v", w, g)
	}
	wt, wc := want.Tuples()
	gt, gc := got.Tuples()
	if !reflect.DeepEqual(wt, gt) || !reflect.DeepEqual(wc, gc) {
		t.Fatalf("Tuples differ: %d vs %d tuples", len(wt), len(gt))
	}
	byID := d.EntityByID()
	probes := 0
	for _, tuple := range wt {
		if probes >= 8 {
			break
		}
		if e, ok := byID[tuple[0]]; ok {
			probes++
			w, errW := want.Match(e.Values, 5)
			g, errG := got.Match(e.Values, 5)
			if errW != nil || errG != nil {
				t.Fatalf("Match: %v / %v", errW, errG)
			}
			if !reflect.DeepEqual(w, g) {
				t.Fatalf("Match(%v) differs:\n  want %+v\n  got  %+v", e.Values, w, g)
			}
		}
	}
	extra := [][]string{
		{"post recovery probe", "3.5", "-2.25"},
		{"post recovery probe", "3.5", "-2.25"},
	}
	w, errW := want.AddRecords(extra)
	g, errG := got.AddRecords(extra)
	if errW != nil || errG != nil {
		t.Fatalf("AddRecords after recovery: %v / %v", errW, errG)
	}
	if !reflect.DeepEqual(w, g) {
		t.Fatalf("AddRecords after recovery diverges:\n  want %+v\n  got  %+v", w, g)
	}
}

// TestCrashRecoveryProperty is the acceptance property: after N random
// batches, reopening from snapshot+WAL yields a matcher bit-identical to the
// uncrashed one — Stats, Tuples, Match, Save bytes, and subsequent
// AddRecords — for shard counts {1, 4} and all three fsync policies.
func TestCrashRecoveryProperty(t *testing.T) {
	d := smallGeo(t)
	for _, shards := range []int{1, 4} {
		load := baseLoader(t, d, shards)
		for _, fsync := range []string{"always", "interval", "off"} {
			for _, snapshotMidway := range []bool{false, true} {
				name := fmt.Sprintf("shards=%d/fsync=%s/snapshot=%v", shards, fsync, snapshotMidway)
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					cfg := WALConfig{Dir: dir, Fsync: fsync, FsyncInterval: 10 * time.Millisecond}

					live, err := RecoverMatcher(cfg, durOpts(shards), load)
					if err != nil {
						t.Fatalf("RecoverMatcher (fresh): %v", err)
					}
					uncrashed, err := load()
					if err != nil {
						t.Fatal(err)
					}

					batches := randomBatches(d, 6, 8, 42)
					for i, rows := range batches {
						lr, err := live.AddRecords(rows)
						if err != nil {
							t.Fatalf("live AddRecords: %v", err)
						}
						ur, err := uncrashed.AddRecords(rows)
						if err != nil {
							t.Fatalf("uncrashed AddRecords: %v", err)
						}
						if !reflect.DeepEqual(lr, ur) {
							t.Fatalf("batch %d: WAL-attached ingest diverges from plain ingest", i)
						}
						if snapshotMidway && i == len(batches)/2 {
							if _, err := live.Snapshot(); err != nil {
								t.Fatalf("Snapshot: %v", err)
							}
						}
					}

					// Crash: abandon the live matcher without a final sync
					// (appends are flushed to the OS, which survives a
					// process kill under every policy). CloseWAL afterwards
					// only stops the background goroutines.
					st := live.WALStats()
					if !st.Enabled || st.Appends == 0 {
						t.Fatalf("WAL did not record the ingest: %+v", st)
					}
					live.CloseWAL()

					baseCalled := false
					recovered, err := RecoverMatcher(cfg, durOpts(shards), func() (*Matcher, error) {
						baseCalled = true
						return load()
					})
					if err != nil {
						t.Fatalf("RecoverMatcher (recovery): %v", err)
					}
					defer recovered.CloseWAL()
					if snapshotMidway && baseCalled {
						t.Fatal("recovery rebuilt the base despite a snapshot")
					}
					if !snapshotMidway && !baseCalled {
						t.Fatal("recovery skipped the base builder with no snapshot present")
					}
					assertMatchersIdentical(t, uncrashed, recovered, d)
				})
			}
		}
	}
}

// TestRecoveryDropsTornFinalBatch cuts the log at every byte offset inside
// its final record — every place a crash can interrupt the last append. The
// batch is one record, so the log layer drops it whole: the recovered matcher
// equals the uncrashed one minus that batch, with no recovery checkpoint,
// and the next ingest reuses the dropped sequence number over the truncated
// tear — which a second recovery must replay bit-identically.
func TestRecoveryDropsTornFinalBatch(t *testing.T) {
	d := smallGeo(t)
	const shards = 4
	srcDir := t.TempDir()
	load := baseLoader(t, d, shards)
	live, err := RecoverMatcher(WALConfig{Dir: srcDir, Fsync: "off"}, durOpts(shards), load)
	if err != nil {
		t.Fatal(err)
	}
	reference, err := load() // receives all but the last batch
	if err != nil {
		t.Fatal(err)
	}
	batches := randomBatches(d, 4, 5, 7)
	for i, rows := range batches {
		if _, err := live.AddRecords(rows); err != nil {
			t.Fatal(err)
		}
		if i < len(batches)-1 {
			if _, err := reference.AddRecords(rows); err != nil {
				t.Fatal(err)
			}
		}
	}
	live.CloseWAL()
	wantRecovered := saveBytes(t, reference)
	reused := [][]string{{"reuses the torn sequence", "3.5", "-2.25"}}
	if _, err := reference.AddRecords(reused); err != nil {
		t.Fatal(err)
	}
	wantAfterReuse := saveBytes(t, reference)

	full, err := os.ReadFile(wal.SegmentFile(LogDir(srcDir), 1))
	if err != nil {
		t.Fatal(err)
	}
	records := scanMirror(t, srcDir) // a durability directory is laid out like a mirror
	final := records[len(records)-1]
	lastStart := int64(len(full)) - int64(len(final)) - 8 // the final record's frame: length + crc, then payload
	rec, err := decodeBatchRecord(final)
	if err != nil || rec.seq != uint64(len(batches)-1) || !reflect.DeepEqual(rec.rows, batches[len(batches)-1]) || !bytes.Equal(full[lastStart+8:], final) {
		t.Fatalf("the log does not end in the final batch's record (err %v); test is vacuous", err)
	}

	for cut := lastStart; cut < int64(len(full)); cut++ {
		dir := t.TempDir()
		cfg := WALConfig{Dir: dir, Fsync: "off"}
		if err := os.MkdirAll(LogDir(dir), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wal.SegmentFile(LogDir(dir), 1), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recovered, err := RecoverMatcher(cfg, durOpts(shards), load)
		if err != nil {
			t.Fatalf("cut %d: RecoverMatcher after tear: %v", cut, err)
		}
		if st := recovered.WALStats(); st.Snapshots != 0 || st.NextSeq != uint64(len(batches)-1) {
			t.Fatalf("cut %d: recovery checkpointed or miscounted: %+v", cut, st)
		}
		if !bytes.Equal(saveBytes(t, recovered), wantRecovered) {
			t.Fatalf("cut %d: recovered state is not the reference minus the torn batch", cut)
		}
		if _, err := recovered.AddRecords(reused); err != nil {
			t.Fatalf("cut %d: AddRecords over the tear: %v", cut, err)
		}
		recovered.CloseWAL()

		again, err := RecoverMatcher(cfg, durOpts(shards), load)
		if err != nil {
			t.Fatalf("cut %d: second recovery: %v", cut, err)
		}
		if st := again.WALStats(); st.Snapshots != 0 || st.NextSeq != uint64(len(batches)) {
			t.Fatalf("cut %d: second recovery: %+v", cut, st)
		}
		if !bytes.Equal(saveBytes(t, again), wantAfterReuse) {
			t.Fatalf("cut %d: second recovery diverges after the sequence was reused", cut)
		}
		again.CloseWAL()
	}
}

// TestSnapshotTruncatesLogs asserts the snapshotter actually bounds the log:
// after a checkpoint the logs hold only the post-snapshot suffix, older
// snapshots are removed, and recovery still works from the combination.
func TestSnapshotTruncatesLogs(t *testing.T) {
	d := smallGeo(t)
	dir := t.TempDir()
	cfg := WALConfig{Dir: dir, Fsync: "off", SegmentMaxBytes: 1 << 10}
	live, err := RecoverMatcher(cfg, durOpts(2), func() (*Matcher, error) {
		return BuildMatcher(d, durOpts(2))
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range randomBatches(d, 4, 8, 3) {
		if _, err := live.AddRecords(rows); err != nil {
			t.Fatal(err)
		}
	}
	before := live.WALStats()
	seq1, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	after := live.WALStats()
	if after.Bytes >= before.Bytes {
		t.Fatalf("snapshot did not shrink the logs: %d -> %d bytes", before.Bytes, after.Bytes)
	}
	if after.SnapshotSeq != seq1 || after.NextSeq != seq1 {
		t.Fatalf("sequence bookkeeping off: %+v (snapshot seq %d)", after, seq1)
	}

	// Retention keeps the newest SnapshotKeep (default 2) checkpoints: a
	// second snapshot leaves both, a third rolls the oldest off.
	if _, err := live.AddRecords([][]string{{"one more", "1.0", "1.0"}}); err != nil {
		t.Fatal(err)
	}
	seq2, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if seq2 != seq1+1 {
		t.Fatalf("snapshot seqs: %d then %d", seq1, seq2)
	}
	if seqs, err := ListSnapshots(dir); err != nil || !reflect.DeepEqual(seqs, []uint64{seq1, seq2}) {
		t.Fatalf("snapshots after second checkpoint: %v (err %v), want [%d %d]", seqs, err, seq1, seq2)
	}
	if _, err := live.AddRecords([][]string{{"and another", "2.0", "2.0"}}); err != nil {
		t.Fatal(err)
	}
	seq3, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if seqs, err := ListSnapshots(dir); err != nil || !reflect.DeepEqual(seqs, []uint64{seq2, seq3}) {
		t.Fatalf("snapshots after third checkpoint: %v (err %v), want [%d %d]", seqs, err, seq2, seq3)
	}
	live.CloseWAL()

	recovered, err := RecoverMatcher(cfg, durOpts(2), func() (*Matcher, error) {
		return nil, errors.New("base must not be rebuilt when a snapshot exists")
	})
	if err != nil {
		t.Fatalf("recover from snapshot: %v", err)
	}
	defer recovered.CloseWAL()
	if got, want := saveBytes(t, recovered), saveBytes(t, live); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs from the snapshotted matcher")
	}
}

// TestRecoverMatcherRejectsOldLayout: a directory whose logs an earlier version
// wrote — one log per shard, or a batch log of records without decisions (an
// older segment version) — is refused by name — by recovery before it builds
// anything, and by promotion — and left exactly as it was. No old record ever
// reaches the decoder.
func TestRecoverMatcherRejectsOldLayout(t *testing.T) {
	d := smallGeo(t)
	for name, seg := range map[string]func(dir string) string{
		"per-shard logs":      func(dir string) string { return wal.SegmentFile(filepath.Join(dir, "shard-0001"), 1) },
		"older record format": func(dir string) string { return wal.SegmentFile(LogDir(dir), 1) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.MkdirAll(filepath.Dir(seg(dir)), 0o755); err != nil {
				t.Fatal(err)
			}
			// The previous segment magic is all it takes: the version digit
			// is what stands between an old record and the decoder.
			if err := os.WriteFile(seg(dir), []byte("MEMWAL1\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			listing := func() string {
				var names []string
				filepath.WalkDir(dir, func(path string, _ os.DirEntry, _ error) error {
					names = append(names, path)
					return nil
				})
				return strings.Join(names, "\n")
			}
			before := listing()

			_, err := RecoverMatcher(WALConfig{Dir: dir, Fsync: "off"}, durOpts(2), func() (*Matcher, error) {
				t.Error("base was built for a directory that must be refused")
				return BuildMatcher(d, durOpts(2))
			})
			if !errors.Is(err, ErrWALLayout) {
				t.Fatalf("RecoverMatcher: %v, want ErrWALLayout", err)
			}
			err = NewReplicator(buildBase(t, d, 2), 0).Promote(WALConfig{Dir: dir, Fsync: "off"})
			if !errors.Is(err, ErrWALLayout) {
				t.Fatalf("Promote: %v, want ErrWALLayout", err)
			}
			if after := listing(); after != before {
				t.Fatalf("refused directory was modified:\n%s\nwas:\n%s", after, before)
			}
		})
	}
}

// TestBackgroundSnapshotLoop: with a tiny interval, the snapshotter must
// checkpoint on its own.
func TestBackgroundSnapshotLoop(t *testing.T) {
	d := smallGeo(t)
	dir := t.TempDir()
	cfg := WALConfig{Dir: dir, Fsync: "interval", FsyncInterval: 5 * time.Millisecond, SnapshotInterval: 20 * time.Millisecond}
	m, err := RecoverMatcher(cfg, durOpts(2), func() (*Matcher, error) {
		return BuildMatcher(d, durOpts(2))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.CloseWAL()
	if _, err := m.AddRecords([][]string{{"bg snap probe", "4.0", "5.0"}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.WALStats().Snapshots == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background snapshotter never ran: %+v", m.WALStats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if m.WALStats().Syncs == 0 {
		t.Fatalf("interval fsync loop never synced: %+v", m.WALStats())
	}
}

// TestEmptyBatchDoesNotBurnSequence: an empty AddRecords writes no log
// records, so it must not consume a sequence number either — a seq with no
// records would be a permanent hole that stops every future replay.
func TestEmptyBatchDoesNotBurnSequence(t *testing.T) {
	d := smallGeo(t)
	dir := t.TempDir()
	cfg := WALConfig{Dir: dir, Fsync: "off"}
	load := baseLoader(t, d, 2)
	live, err := RecoverMatcher(cfg, durOpts(2), load)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.AddRecords(nil); err != nil {
		t.Fatalf("empty AddRecords: %v", err)
	}
	if _, err := live.AddRecords([][]string{}); err != nil {
		t.Fatalf("empty AddRecords: %v", err)
	}
	if seq := live.WALStats().NextSeq; seq != 0 {
		t.Fatalf("empty batches burned sequence numbers: next_seq %d", seq)
	}
	if _, err := live.AddRecords([][]string{{"real row", "1.0", "2.0"}}); err != nil {
		t.Fatal(err)
	}
	uncrashed, err := load()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := uncrashed.AddRecords([][]string{{"real row", "1.0", "2.0"}}); err != nil {
		t.Fatal(err)
	}
	live.CloseWAL()

	recovered, err := RecoverMatcher(cfg, durOpts(2), load)
	if err != nil {
		t.Fatalf("recovery after empty batches: %v", err)
	}
	defer recovered.CloseWAL()
	assertMatchersIdentical(t, uncrashed, recovered, d)
}

// TestCloseWALFencesIngest: after the graceful shutdown flush, reads keep
// working and further ingest fails instead of silently skipping the log.
func TestCloseWALFencesIngest(t *testing.T) {
	d := smallGeo(t)
	dir := t.TempDir()
	m, err := RecoverMatcher(WALConfig{Dir: dir, Fsync: "off"}, durOpts(2), func() (*Matcher, error) {
		return BuildMatcher(d, durOpts(2))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if err := m.CloseWAL(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := m.Match([]string{"still serving", "1.0", "2.0"}, 1); err != nil {
		t.Fatalf("Match after CloseWAL: %v", err)
	}
	if _, err := m.AddRecords([][]string{{"too late", "1.0", "2.0"}}); err == nil {
		t.Fatal("AddRecords succeeded after CloseWAL; the batch would be unlogged")
	}
}

// sameRecord compares two batch records down to the distance bits (a NaN is
// equal to itself here, which reflect.DeepEqual would deny).
func sameRecord(a, b *batchRecord) bool {
	return a.seq == b.seq && a.nShards == b.nShards && reflect.DeepEqual(a.rows, b.rows) &&
		slices.EqualFunc(a.decisions, b.decisions, func(x, y addDecision) bool {
			return x.absorb == y.absorb && x.shard == y.shard && x.local == y.local && x.batch == y.batch &&
				math.Float32bits(x.dist) == math.Float32bits(y.dist)
		})
}

// decodeAllocFactor bounds what decoding a payload may allocate, per payload
// byte: the cheapest row is two bytes (target 0, no values) and costs a slice
// header and a decision, 24 + 40 B — 32x — and the cheapest value is its one
// length byte for a 16 B string header; size-class rounding takes the rest.
const decodeAllocFactor = 40

// FuzzDecodeBatchRecord: a follower decodes whatever its -primary-url serves,
// so on arbitrary bytes the decoder must not panic, must fail only with
// ErrCorruptRecord, and must not let a count in the payload size an
// allocation the payload cannot back; what it accepts re-encodes to the same
// bytes, and what encodeBatchRecord produced decodes to the same record, down
// to the distance bits.
func FuzzDecodeBatchRecord(f *testing.F) {
	absorb := func(shard, local int, dist float32) addDecision {
		return addDecision{absorb: true, shard: shard, local: local, dist: dist}
	}
	for _, rec := range []batchRecord{
		{seq: 0, nShards: 1, rows: [][]string{{"a"}}, decisions: make([]addDecision, 1)},
		{seq: 1, nShards: 4, rows: [][]string{{"", "x", "y"}, {"Café Zoë", "1.0", "-2.25"}},
			decisions: []addDecision{absorb(3, 5, 0.125), {}}},
		// Ragged rows, one of them absorbed though it has no values: the
		// decoder frames, planFromRecord judges.
		{seq: 2, nShards: 2, rows: [][]string{{}, {"only row with values"}},
			decisions: []addDecision{absorb(1, 0, float32(math.NaN())), absorb(0, 0, -1e-7)}},
		// Multi-byte uvarints everywhere: sequence, target, value length.
		{seq: 1 << 40, nShards: maxSaneShards, rows: [][]string{{strings.Repeat("long value ", 30)}},
			decisions: []addDecision{absorb(maxSaneShards-1, tupleLocalMask, 0.5)}},
	} {
		f.Add(encodeBatchRecord(&rec))
	}
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 1, 0, 0}) // a 10-byte sequence number that overflows
	f.Add([]byte{2, 0x80, 0x00, 1, 1, 0, 0})                                                 // a sequence number in two bytes where one does
	f.Add([]byte{2, 7, 1, 0xff, 0xff, 0xff, 0x1f, 0, 0})                                     // 2^26 rows in two bytes
	f.Add([]byte{2, 7, 1, 1, 0, 0x80, 0x80, 0x40, 0})                                        // a row of 2^20 values in one byte
	f.Add([]byte{2, 7, 1, 1, 3, 0, 0})                                                       // an absorbed row cut off inside its distance
	f.Fuzz(func(t *testing.T, payload []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := decodeBatchRecord(payload)
		runtime.ReadMemStats(&after)
		// The constant covers the error value and the runtime.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(decodeAllocFactor*len(payload)+64<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(payload), got, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptRecord) || rec.rows != nil || rec.decisions != nil {
				t.Fatalf("untyped failure: %v (record %+v)", err, rec)
			}
		} else if again := encodeBatchRecord(&rec); !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload does not re-encode to itself:\n  in  %x\n  out %x", payload, again)
		}

		// The other direction, on a record cut from the same bytes: rows from
		// its lines, decisions from their lengths and a running checksum.
		want := batchRecord{seq: uint64(len(payload)) << (len(payload) % 57), nShards: 1 + len(payload)%5}
		for _, line := range strings.Split(string(payload), "\n") {
			want.rows = append(want.rows, strings.Split(line, ","))
			var d addDecision
			if sum := wal.CRC([]byte(line)); len(line)%2 == 1 {
				d = absorb(int(sum)%want.nShards, int(sum>>7), math.Float32frombits(sum))
			}
			want.decisions = append(want.decisions, d)
		}
		got, err := decodeBatchRecord(encodeBatchRecord(&want))
		if err != nil || !sameRecord(&got, &want) {
			t.Fatalf("decode(encode(x)) != x: err %v\n  x   %+v\n  got %+v", err, want, got)
		}
	})
}

// TestWALStatsJSON pins the keys /stats "wal" carries and their order: the
// log's own counters sit between fsync and next_seq, flattened, as they did
// before WALStats embedded wal.Stats.
func TestWALStatsJSON(t *testing.T) {
	var st WALStats
	st.Enabled, st.Dir, st.Fsync = true, "d", "always"
	st.Segments, st.Bytes, st.Appends, st.Syncs, st.TornTruncations = 1, 2, 3, 4, 5
	st.NextSeq, st.SnapshotSeq, st.Snapshots, st.SnapshotErrors = 6, 7, 8, 9
	st.LoadSeconds, st.LoadBytes = 0.5, 10
	st.ReplayedBatches, st.ReplayedRows, st.ReplaySeconds = 11, 12, 1.5
	st.ReplayReaderBusySeconds, st.ReplayShardBusySeconds = 0.25, []float64{0.75}
	st.ReplaySkippedLinks = 13
	got, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"enabled":true,"dir":"d","fsync":"always",` +
		`"segments":1,"bytes":2,"appends":3,"syncs":4,"torn_truncations":5,` +
		`"next_seq":6,"snapshot_seq":7,"snapshots":8,"snapshot_errors":9,` +
		`"load_seconds":0.5,"load_bytes":10,` +
		`"replayed_batches":11,"replayed_rows":12,"replay_seconds":1.5,` +
		`"replay_reader_busy_seconds":0.25,"replay_shard_busy_seconds":[0.75],` +
		`"replay_skipped_links":13}`
	if string(got) != want {
		t.Fatalf("WALStats marshals to\n%s\nwant\n%s", got, want)
	}
}

// TestRestartUnderOtherOptions: the state defines itself. A primary over a
// snapshot at seq 0 logs absorptions under M = 0.4; a restart over that
// directory with the same options, with M below its farthest logged
// absorption, or with a larger M recovers to the primary's bytes and
// decides later batches under the file's M, and one with another encoder is
// refused with ErrEncoderMismatch before any replay. A follower bootstrapped
// under another M equals the primary at every seq, and so does one
// bootstrapped from the v7 rendering of the snapshot.
func TestRestartUnderOtherOptions(t *testing.T) {
	d := smallGeo(t)
	withM := func(m float32) Options {
		o := durOpts(2)
		o.M = m
		return o
	}
	grams3, noLex := durOpts(2), durOpts(2)
	grams3.Encoder, noLex.Encoder = embed.NewHashEncoder(embed.WithGrams(3)), embed.NewHashEncoder(embed.WithoutLexicality())
	base, err := BuildMatcher(d, withM(0.4))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	primary, err := RecoverMatcher(WALConfig{Dir: dir, Fsync: "off"}, withM(0.4), func() (*Matcher, error) { return base, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer primary.CloseWAL()
	if _, err := primary.Snapshot(); err != nil {
		t.Fatal(err)
	}
	var atSeq [][]byte // the primary's state after each batch
	var farthest float32
	for _, rows := range randomBatches(d, 12, 8, 1) {
		res, err := primary.AddRecords(rows)
		if err != nil {
			t.Fatal(err)
		}
		atSeq = append(atSeq, saveBytes(t, primary))
		for _, r := range res {
			if r.Absorbed {
				farthest = max(farthest, r.Distance)
			}
		}
	}
	if farthest <= 0.189 {
		t.Fatalf("the farthest logged absorption is at %v; the M = 0.189 case needs one beyond it", farthest)
	}
	snap, err := os.ReadFile(SnapshotFile(dir, 0))
	if err != nil {
		t.Fatal(err)
	}

	later := randomBatches(d, 4, 8, 4)
	for _, tc := range []struct {
		name    string
		opt     Options
		refused bool
	}{
		{"same options", withM(0.4), false},
		{"M 0.189", withM(0.189), false},
		{"M 0.7", withM(0.7), false},
		{"3-grams only", grams3, true},
		{"without lexicality", noLex, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			restart := t.TempDir()
			mirrorLog(t, primary, restart)
			if err := os.WriteFile(SnapshotFile(restart, 0), snap, 0o644); err != nil {
				t.Fatal(err)
			}
			rec, err := RecoverMatcher(WALConfig{Dir: restart, Fsync: "off"}, tc.opt, func() (*Matcher, error) {
				return nil, errors.New("the base was rebuilt despite the snapshot")
			})
			if tc.refused {
				if rec != nil || !errors.Is(err, ErrEncoderMismatch) || !strings.Contains(err.Error(), "probe ") {
					t.Fatalf("recovered=%v err=%v, want ErrEncoderMismatch naming a probe", rec != nil, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer rec.CloseWAL()
			if got := rec.M(); got != 0.4 {
				t.Fatalf("recovered under M %v, the file holds 0.4", got)
			}
			want := mustLoad(t, atSeq[len(atSeq)-1], durOpts(2))
			for _, rows := range later {
				w, errW := want.AddRecords(rows)
				g, errG := rec.AddRecords(rows)
				if errW != nil || errG != nil || !slices.Equal(w, g) {
					t.Fatalf("a later batch is decided otherwise: %v / %v\n  want %+v\n  got  %+v", errW, errG, w, g)
				}
			}
			assertMatchersIdentical(t, want, rec, d)
		})
	}

	records := scanMirror(t, dir)
	for _, tc := range []struct {
		name string
		file []byte
		m    float32
	}{
		{"follower under M 0.7", snap, 0.7},
		{"follower from v7 under M 0.7", v7Bytes(t, snap), 0.7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReplicator(mustLoad(t, tc.file, withM(tc.m)), 0)
			for seq, rec := range records {
				if err := r.Apply(scanOf(rec)); err != nil {
					t.Fatalf("seq %d: %v", seq, err)
				}
				if !bytes.Equal(saveBytes(t, r.m), atSeq[seq]) {
					t.Fatalf("seq %d: the follower's Save bytes differ from the primary's", seq)
				}
			}
		})
	}
}
