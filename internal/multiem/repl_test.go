package multiem

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/wal"
)

// mirrorLog copies the primary's live segment files byte-for-byte into
// mirrorDir with the same layout, through the chunked replication read path
// (Segments + ReadSegmentAt), exactly as the HTTP follower does.
func mirrorLog(t *testing.T, primary *Matcher, mirrorDir string) {
	t.Helper()
	l, dst := primary.Log(), LogDir(mirrorDir)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	segs, err := l.Segments()
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		var data []byte
		for off := int64(0); off < seg.Bytes; {
			buf, _, err := l.ReadSegmentAt(seg.Index, off, 512)
			if err != nil {
				t.Fatalf("segment %d: %v", seg.Index, err)
			}
			data = append(data, buf...)
			off += int64(len(buf))
		}
		if err := os.WriteFile(wal.SegmentFile(dst, seg.Index), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// scanMirror collects every record payload from a mirror directory, in log
// order (ReadDir sorts, and segment names are zero-padded).
func scanMirror(t *testing.T, mirrorDir string) [][]byte {
	t.Helper()
	var out [][]byte
	entries, err := os.ReadDir(LogDir(mirrorDir))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		_, tail, err := wal.ScanRecords(filepath.Join(LogDir(mirrorDir), e.Name()), 0, func(p []byte) error {
			out = append(out, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if tail != wal.TailClean {
			t.Fatalf("%s: tail %v on a quiesced mirror", e.Name(), tail)
		}
	}
	return out
}

// scanOf is a scan over payloads, in order, with the shape of wal.Log.Replay:
// one follower round for Replicator.Apply.
func scanOf(payloads ...[]byte) func(fn func(payload []byte) error) error {
	return func(fn func(payload []byte) error) error {
		for _, p := range payloads {
			if err := fn(p); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestReplicationProperty is the headline replication correctness claim:
// a follower bootstrapped from the primary's snapshot and fed the shipped
// WAL stream is bit-identical (Save bytes) to the primary at every covered
// sequence, across shard counts and fsync policies — and after promotion it
// is a fully functional primary whose directory recovers like any other.
func TestReplicationProperty(t *testing.T) {
	d := smallGeo(t)
	for _, shards := range []int{1, 4} {
		for _, fsync := range []string{"always", "interval", "off"} {
			t.Run(fmt.Sprintf("shards=%d/fsync=%s", shards, fsync), func(t *testing.T) {
				primDir := t.TempDir()
				cfg := WALConfig{Dir: primDir, Fsync: fsync, FsyncInterval: 5 * time.Millisecond, SegmentMaxBytes: 1 << 10}
				primary, err := RecoverMatcher(cfg, durOpts(shards), baseLoader(t, d, shards))
				if err != nil {
					t.Fatal(err)
				}
				defer primary.CloseWAL()

				// Ingest, snapshotting midway so the follower bootstraps from a
				// non-trivial snapshot; capture Save bytes after every batch.
				batches := randomBatches(d, 6, 6, 7)
				states := make(map[uint64][]byte) // seq of last applied batch -> Save bytes
				for i, rows := range batches {
					if _, err := primary.AddRecords(rows); err != nil {
						t.Fatal(err)
					}
					states[uint64(i)] = saveBytes(t, primary)
					if i == 1 {
						if _, err := primary.Snapshot(); err != nil {
							t.Fatal(err)
						}
					}
				}

				// Bootstrap the follower from the newest snapshot.
				snapPath, snapSeq, ok, err := LatestSnapshot(primDir)
				if err != nil || !ok {
					t.Fatalf("no snapshot: %v", err)
				}
				f, err := os.Open(snapPath)
				if err != nil {
					t.Fatal(err)
				}
				follower, err := LoadMatcher(f, durOpts(shards))
				f.Close()
				if err != nil {
					t.Fatal(err)
				}
				if got := saveBytes(t, follower); !bytes.Equal(got, states[snapSeq-1]) {
					t.Fatalf("snapshot at seq %d does not match the primary state it covers", snapSeq)
				}
				r := NewReplicator(follower, snapSeq)
				if _, err := follower.AddRecords(batches[0]); !errors.Is(err, ErrReadOnly) {
					t.Fatalf("follower AddRecords: %v, want ErrReadOnly", err)
				}

				// Ship the stream and feed it one record per round, so that every
				// sequence is published: at each, the follower's Save bytes must
				// equal the primary's at that same sequence.
				mirrorDir := t.TempDir()
				mirrorLog(t, primary, mirrorDir)
				covered := 0
				for _, p := range scanMirror(t, mirrorDir) {
					before := r.NextSeq()
					if err := r.Apply(scanOf(p)); err != nil {
						t.Fatal(err)
					}
					for seq := before; seq < r.NextSeq(); seq++ {
						if !bytes.Equal(saveBytes(t, follower), states[seq]) {
							t.Fatalf("follower diverges from primary at seq %d", seq)
						}
						covered++
					}
				}
				if want := uint64(len(batches)); r.NextSeq() != want {
					t.Fatalf("follower applied through seq %d, want %d", r.NextSeq(), want)
				}
				if covered < len(batches)-2 {
					t.Fatalf("only %d sequences were covered by the per-seq check", covered)
				}

				// Promote: the mirror becomes a live durability directory, the
				// fence lifts, and the promoted matcher ingests like any primary.
				if err := r.Promote(WALConfig{Dir: mirrorDir, Fsync: fsync, FsyncInterval: 5 * time.Millisecond, SegmentMaxBytes: 1 << 10}); err != nil {
					t.Fatal(err)
				}
				defer follower.CloseWAL()
				assertMatchersIdentical(t, primary, follower, d)

				// The promoted directory recovers exactly like one written by a
				// primary from birth — bit-identical after a "crash".
				post := randomBatches(d, 2, 5, 99)
				for _, rows := range post {
					if _, err := follower.AddRecords(rows); err != nil {
						t.Fatal(err)
					}
				}
				recovered, err := RecoverMatcher(WALConfig{Dir: mirrorDir, Fsync: fsync}, durOpts(shards), func() (*Matcher, error) {
					return nil, errors.New("base must not be rebuilt: the promoted dir has a snapshot")
				})
				if err != nil {
					t.Fatal(err)
				}
				defer recovered.CloseWAL()
				if !bytes.Equal(saveBytes(t, recovered), saveBytes(t, follower)) {
					t.Fatal("recovery from the promoted directory diverges from the promoted matcher")
				}
			})
		}
	}
}

// TestPromotionDropsIncompleteBatch covers the failover edge the promotion
// checkpoint exists for: the primary dies with the final batch's record
// mirrored but not yet applied. The follower promotes at the last applied
// sequence and truncates the stale record away, so its sequence number can
// be reused safely. A record past a missing one is a named gap, a round whose
// scan fails keeps the batches before the failure, neither stops the follower
// from going on and promoting, and a record delivered after the promotion is
// refused by name (ErrPromoted).
func TestPromotionDropsIncompleteBatch(t *testing.T) {
	d := smallGeo(t)
	const shards = 4
	primDir := t.TempDir()
	cfg := WALConfig{Dir: primDir, Fsync: "off"}
	primary, err := RecoverMatcher(cfg, durOpts(shards), baseLoader(t, d, shards))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.CloseWAL()
	if _, err := primary.Snapshot(); err != nil {
		t.Fatal(err)
	}
	batches := randomBatches(d, 4, 6, 13)
	states := make(map[uint64][]byte)
	for i, rows := range batches {
		if _, err := primary.AddRecords(rows); err != nil {
			t.Fatal(err)
		}
		states[uint64(i)] = saveBytes(t, primary)
	}

	snapPath, snapSeq, ok, err := LatestSnapshot(primDir)
	if err != nil || !ok {
		t.Fatalf("no snapshot: %v", err)
	}
	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := LoadMatcher(f, durOpts(shards))
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplicator(follower, snapSeq)

	mirrorDir := t.TempDir()
	mirrorLog(t, primary, mirrorDir)
	records := scanMirror(t, mirrorDir)
	// Withhold the final batch's record — as if the primary died before the
	// fetch loop got to apply it.
	last := uint64(len(batches) - 1)
	if rec, err := decodeBatchRecord(records[len(records)-1]); err != nil || rec.seq != last {
		t.Fatalf("mirror ends in batch %d (err %v), want %d", rec.seq, err, last)
	}
	// Delivered ahead of the batches before it, it is refused by name and
	// moves nothing.
	if err := r.Apply(scanOf(records[len(records)-1])); !errors.Is(err, ErrSeqGap) || r.NextSeq() != snapSeq || follower.Epoch() != 0 {
		t.Fatalf("Apply past a gap: %v at seq %d, epoch %d; want ErrSeqGap at %d, epoch 0", err, r.NextSeq(), follower.Epoch(), snapSeq)
	}
	// A round whose scan fails after two whole records publishes those two and
	// returns the scan's error.
	hiccup := errors.New("read error")
	if err := r.Apply(func(fn func(payload []byte) error) error {
		if err := scanOf(records[:2]...)(fn); err != nil {
			return err
		}
		return hiccup
	}); !errors.Is(err, hiccup) || r.NextSeq() != snapSeq+2 || follower.Epoch() != 2 {
		t.Fatalf("round cut short by its scan: %v at seq %d, epoch %d; want the scan's error at %d, epoch 2", err, r.NextSeq(), follower.Epoch(), snapSeq+2)
	}
	if !bytes.Equal(saveBytes(t, follower), states[snapSeq+1]) {
		t.Fatal("the batches before the scan's error are not the primary's")
	}
	// Neither error sticks: the next round rescans the mirror from its start.
	if err := r.Apply(scanOf(records[:len(records)-1]...)); err != nil {
		t.Fatal(err)
	}
	if r.NextSeq() != last {
		t.Fatalf("follower applied through %d, want stop at %d", r.NextSeq(), last)
	}

	// The shipped files still hold the final batch's record (mirrorLog
	// copied it); promotion must checkpoint past it so seq reuse is safe.
	if err := r.Promote(WALConfig{Dir: mirrorDir, Fsync: "off"}); err != nil {
		t.Fatal(err)
	}
	defer follower.CloseWAL()
	if !bytes.Equal(saveBytes(t, follower), states[last-1]) {
		t.Fatal("promoted state does not match the last complete sequence")
	}

	// A fetch loop that outlived the promotion would now deliver the withheld
	// record — the batch at the replicator's position. The matcher keeps its
	// own log from here on, so the batch is refused by name: not applied, and
	// not logged as if a client had sent it.
	epoch, logged := follower.Epoch(), follower.WALStats().Appends
	if err := r.Apply(scanOf(records[len(records)-1])); !errors.Is(err, ErrPromoted) {
		t.Fatalf("Apply after Promote: %v, want ErrPromoted", err)
	}
	if follower.Epoch() != epoch || r.NextSeq() != last || follower.WALStats().Appends != logged {
		t.Fatalf("refused Apply moved state: epoch %d -> %d, next seq %d (want %d), log records %d -> %d",
			epoch, follower.Epoch(), r.NextSeq(), last, logged, follower.WALStats().Appends)
	}
	if !bytes.Equal(saveBytes(t, follower), states[last-1]) {
		t.Fatal("refused Apply changed the matcher state")
	}

	// The reused sequence numbers must not collide with the stale records:
	// ingest on the promoted primary, then recover its directory.
	for _, rows := range randomBatches(d, 2, 5, 21) {
		if _, err := follower.AddRecords(rows); err != nil {
			t.Fatal(err)
		}
	}
	recovered, err := RecoverMatcher(WALConfig{Dir: mirrorDir, Fsync: "off"}, durOpts(shards), func() (*Matcher, error) {
		return nil, errors.New("base must not be rebuilt")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.CloseWAL()
	if !bytes.Equal(saveBytes(t, recovered), saveBytes(t, follower)) {
		t.Fatal("recovery after promotion diverges")
	}
}
