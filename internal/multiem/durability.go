package multiem

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hist"
	"repro/internal/wal"
)

// The durability subsystem: every AddRecords batch is appended — its rows and
// what decide settled for each of them — to the matcher's write-ahead log
// before the in-memory state changes, and a snapshotter periodically
// checkpoints the whole matcher and truncates the log. Recovery = load the
// latest snapshot (or rebuild the base state) and redo the logged batches:
// each row is embedded again, takes the decision the log holds for it
// (checked against the state it is replayed over, searched for never), and
// the batch runs the same chain and, shard by shard, the same apply as the
// live ingest did — so the recovered matcher is bit-identical to the one that
// crashed, down to its Save bytes. A follower applies shipped records through
// the same replay, one round per fetch, under the views it serves.

// WALConfig configures the durability subsystem for RecoverMatcher.
type WALConfig struct {
	// Dir is the durability directory: the batch log's segments under
	// LogDir(Dir), snapshots as snapshot-<seq>.bin.
	Dir string
	// Fsync is the log sync policy: "always" (fsync before an ingest
	// returns), "interval" (fsync on a timer), or "off" (the OS decides).
	// Empty means "interval".
	Fsync string
	// FsyncInterval is the timer for the "interval" policy; <= 0 means
	// 100ms.
	FsyncInterval time.Duration
	// SegmentMaxBytes rotates log segments past this size; <= 0 uses the
	// wal package default (64 MiB).
	SegmentMaxBytes int64
	// SnapshotInterval checkpoints the matcher and truncates the logs this
	// often; <= 0 disables background snapshots (Snapshot can still be
	// called explicitly).
	SnapshotInterval time.Duration
	// SnapshotKeep is how many checkpoints to retain, newest first; <= 0
	// means 2. Keeping more than one means a replication follower that
	// picked a snapshot from the manifest can still fetch it after the
	// primary checkpoints again mid-bootstrap.
	SnapshotKeep int
}

// WALStats reports the durability subsystem's size and activity.
type WALStats struct {
	// Enabled is false without a WAL; only Load* and Replay* are set then.
	Enabled bool `json:"enabled"`
	// Dir is the durability directory.
	Dir string `json:"dir,omitempty"`
	// Fsync is the active sync policy.
	Fsync string `json:"fsync,omitempty"`
	// Stats is the log's own: its live segments and bytes, and the appends,
	// fsyncs and torn-tail truncations since open.
	wal.Stats
	// NextSeq is the sequence number the next ingest batch will get.
	NextSeq uint64 `json:"next_seq"`
	// SnapshotSeq is the sequence the latest snapshot covers: recovery
	// replays only batches at or above it.
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// Snapshots counts checkpoints taken since open.
	Snapshots int64 `json:"snapshots"`
	// SnapshotErrors counts failed background checkpoints.
	SnapshotErrors int64 `json:"snapshot_errors"`
	// LoadSeconds and LoadBytes are the other half of a restart: how long
	// LoadMatcher took to read and decode the state this matcher started from
	// (the newest snapshot, or the matcher file base() loaded) and how large
	// that file was. Both zero when the state was built, not loaded.
	LoadSeconds float64 `json:"load_seconds"`
	LoadBytes   int64   `json:"load_bytes"`
	// ReplayedBatches and ReplayedRows count what this matcher replayed from
	// the log — at RecoverMatcher, or over a follower's rounds (kept through a
	// promotion) — and ReplaySeconds how long that took: rows per second is
	// what a snapshot interval is sized from, and a follower's catch-up rate.
	ReplayedBatches int64   `json:"replayed_batches"`
	ReplayedRows    int64   `json:"replayed_rows"`
	ReplaySeconds   float64 `json:"replay_seconds"`
	// ReplayReaderBusySeconds and ReplayShardBusySeconds say where
	// ReplaySeconds went: replay is one reader (decode, embed, chain) feeding
	// one apply stream per shard, and these are the seconds each spent working
	// rather than waiting for the other side. Every shard near ReplaySeconds:
	// replay is insert-bound; one shard near it and the rest low: absorption
	// is skewed; the reader near it: embed-bound.
	ReplayReaderBusySeconds float64   `json:"replay_reader_busy_seconds"`
	ReplayShardBusySeconds  []float64 `json:"replay_shard_busy_seconds,omitempty"`
	// ReplaySkippedLinks counts the index nodes replay appended without
	// linking them into a graph, because a compaction later in the log
	// discarded them: graph work the crashed process did and recovery did not
	// have to. Replay links a shard only when its log (or round) ends, so the
	// count is every node a compaction discards, fixed by the log and the
	// state it replays over. Zero when the replayed log crossed no compaction.
	ReplaySkippedLinks int64 `json:"replay_skipped_links"`
}

// walState is a matcher's attached durability state.
type walState struct {
	cfg    WALConfig
	policy wal.SyncPolicy
	log    *wal.Log

	// seq is the next batch sequence number. Written under addMu; atomic so
	// WALStats can read it without the ingest lock.
	seq         atomic.Uint64
	snapshotSeq atomic.Uint64
	snapshots   atomic.Int64
	snapErrs    atomic.Int64

	// brokenErr fences ingest after a failed append; guarded by addMu.
	brokenErr error

	// snapMu serializes whole checkpoints (the background loop and explicit
	// Snapshot calls can overlap now that serialization runs off the ingest
	// lock); rotation and cleanup of the log must not interleave.
	snapMu sync.Mutex

	stop      chan struct{}
	loops     sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// snapshotPrefix names checkpoint files; the suffix is the covered sequence.
const snapshotPrefix = "snapshot-"

// LatestSnapshot reports the newest checkpoint in a durability (or mirror)
// directory: its path, the sequence it covers, and whether one exists — the
// last of ListSnapshots. Incomplete checkpoints never surface here: Snapshot
// writes them with wal.WriteFileAtomic.
func LatestSnapshot(dir string) (path string, seq uint64, ok bool, err error) {
	seqs, err := ListSnapshots(dir)
	if err != nil || len(seqs) == 0 {
		return "", 0, false, err
	}
	seq = seqs[len(seqs)-1]
	return SnapshotFile(dir, seq), seq, true, nil
}

// SnapshotFile names the checkpoint file covering seq under a durability
// directory; replication mirrors use it to lay files out exactly like the
// primary.
func SnapshotFile(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d.bin", snapshotPrefix, seq))
}

// LogDir names the directory holding the batch log's segments under a
// durability directory. Primary, follower and promotion all take the layout
// from here, so a mirror is byte for byte a valid durability directory — and
// a follower can drop its mirrored segments wholesale without reaching the
// snapshots or the fencing term beside them.
func LogDir(dir string) string { return filepath.Join(dir, "log") }

// Log exposes the write-ahead log so the replication layer can serve its
// manifest and segment bytes (wal.Log reads are safe alongside the matcher's
// appends); nil without an attached WAL. Callers must only read.
func (m *Matcher) Log() *wal.Log {
	if m.wal == nil {
		return nil
	}
	return m.wal.log
}

// ErrWALLayout reports a durability or mirror directory whose logs were
// written by an earlier version: one log per shard (shard-NNNN/), or a batch
// log whose records hold raw rows without their decisions (an older segment
// format version under log/). It is refused rather than upgraded in place.
var ErrWALLayout = errors.New("multiem: directory holds logs written by an earlier version (per-shard shard-NNNN/ logs, " +
	"or log/ segments in an older record format); checkpoint it with the binary that wrote it, stop that binary, " +
	"and remove the shard-* directories and log/ (a follower mirror can simply be emptied)")

// CheckWALLayout returns ErrWALLayout when dir contains a shard-NNNN entry or
// a log segment of another format version; a missing dir is fine. Nothing is
// modified.
func CheckWALLayout(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("multiem: wal dir: %w", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "shard-") {
			return fmt.Errorf("%w: found %s", ErrWALLayout, filepath.Join(dir, e.Name()))
		}
	}
	if err := wal.CheckVersion(LogDir(dir)); errors.Is(err, wal.ErrVersion) {
		return fmt.Errorf("%w: %v", ErrWALLayout, err)
	} else if err != nil {
		return fmt.Errorf("multiem: wal dir: %w", err)
	}
	return nil
}

// RecoverMatcher opens (or creates) the durability directory and returns a
// matcher with the WAL attached:
//
//  1. The latest snapshot, when one exists, is loaded; otherwise base() must
//     produce the starting state (build the pipeline, or load a saved
//     matcher file) — it must be deterministic for recovery to be exact.
//  2. Every batch logged at or after the snapshot is redone — the logged
//     decisions and the normal chain, then on every shard, as an independent
//     stream over the log, the decisions checked against that shard's state
//     and the normal apply (replayWAL, which a follower runs too) — so the
//     recovered state is bit-identical to the matcher that crashed. A log
//     written over another state fails with the ErrLogMismatch of its lowest
//     failing batch and no matcher is returned; nothing in the directory is
//     touched. A torn tail (crash mid-append) ends replay cleanly at the
//     last whole batch; the next append truncates it.
//  3. Subsequent AddRecords append to the log under cfg's fsync policy,
//     and a background snapshotter (cfg.SnapshotInterval > 0) bounds
//     recovery time by log-since-snapshot.
//
// Call CloseWAL on shutdown to flush and fsync the log.
func RecoverMatcher(cfg WALConfig, opt Options, base func() (*Matcher, error)) (*Matcher, error) {
	cfg, policy, err := normalizeWALConfig(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("multiem: wal dir: %w", err)
	}

	snapPath, snapSeq, haveSnap, err := LatestSnapshot(cfg.Dir)
	if err != nil {
		return nil, err
	}
	var m *Matcher
	if haveSnap {
		f, err := os.Open(snapPath)
		if err != nil {
			return nil, fmt.Errorf("multiem: open snapshot: %w", err)
		}
		m, err = LoadMatcher(f, opt)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("multiem: load snapshot %s: %w", filepath.Base(snapPath), err)
		}
	} else {
		if m, err = base(); err != nil {
			return nil, err
		}
		if m.wal != nil {
			return nil, errors.New("multiem: RecoverMatcher: base matcher already has a WAL attached")
		}
	}

	ws := &walState{cfg: cfg, policy: policy, stop: make(chan struct{})}
	if ws.log, err = wal.Open(LogDir(cfg.Dir), wal.Options{SegmentMaxBytes: cfg.SegmentMaxBytes}); err != nil {
		return nil, err
	}
	batches, err := m.replayWAL(ws.log.Replay, snapSeq, replayInflightBytes)
	if err != nil {
		ws.log.Close()
		return nil, err
	}
	ws.seq.Store(snapSeq + uint64(batches))
	ws.snapshotSeq.Store(snapSeq)
	m.wal = ws
	ws.startLoops(m)
	return m, nil
}

// normalizeWALConfig applies the documented defaults, resolves the fsync
// policy and refuses an old-layout directory — before anything is built or
// written; RecoverMatcher and Replicator.Promote share it.
func normalizeWALConfig(cfg WALConfig) (WALConfig, wal.SyncPolicy, error) {
	if cfg.Dir == "" {
		return cfg, 0, errors.New("multiem: WALConfig.Dir is required")
	}
	if err := CheckWALLayout(cfg.Dir); err != nil {
		return cfg, 0, err
	}
	if cfg.Fsync == "" {
		cfg.Fsync = "interval"
	}
	policy, err := wal.ParsePolicy(cfg.Fsync)
	if err != nil {
		return cfg, 0, fmt.Errorf("multiem: %w", err)
	}
	if cfg.FsyncInterval <= 0 {
		cfg.FsyncInterval = 100 * time.Millisecond
	}
	if cfg.SnapshotKeep <= 0 {
		cfg.SnapshotKeep = defaultSnapshotKeep
	}
	return cfg, policy, nil
}

// startLoops launches the background fsync ticker (interval policy) and the
// snapshotter.
func (ws *walState) startLoops(m *Matcher) {
	if ws.policy == wal.SyncInterval {
		ws.loops.Add(1)
		go func() {
			defer ws.loops.Done()
			t := time.NewTicker(ws.cfg.FsyncInterval)
			defer t.Stop()
			for {
				select {
				case <-ws.stop:
					return
				case <-t.C:
					ws.log.Sync() // a failed interval fsync retries next tick
				}
			}
		}()
	}
	if ws.cfg.SnapshotInterval > 0 {
		ws.loops.Add(1)
		go func() {
			defer ws.loops.Done()
			t := time.NewTicker(ws.cfg.SnapshotInterval)
			defer t.Stop()
			for {
				select {
				case <-ws.stop:
					return
				case <-t.C:
					if _, err := m.Snapshot(); err != nil {
						ws.snapErrs.Add(1)
					}
				}
			}
		}()
	}
}

// Snapshot checkpoints the matcher into the durability directory and
// truncates the log: state is saved atomically as snapshot-<seq>.bin (the
// per-shard sections serialized concurrently), log segments the checkpoint
// covers are deleted, and older snapshots are removed. Recovery cost from
// here on is the log written since this call.
//
// The ingest lock is held only for the prologue — pinning the epoch view,
// reading the covered sequence number, and sealing the active log segment:
// work that does not depend on the state size. The serialization
// itself reads the pinned immutable view while AddRecords keeps committing
// (to fresh segments, with sequence numbers past the checkpoint), so
// checkpoint duration no longer bounds ingest stall. The view and the
// sequence are read under the same lock acquisition, which is what keeps a
// checkpoint bit-identical to the state at its sequence — the recovery
// invariant.
func (m *Matcher) Snapshot() (seq uint64, err error) {
	ws := m.wal
	if ws == nil {
		return 0, errors.New("multiem: Snapshot: no WAL attached")
	}
	ws.snapMu.Lock()
	defer ws.snapMu.Unlock()

	m.addMu.Lock()
	v := m.state.Load()
	seq = ws.seq.Load()
	// Seal the active segment: every record covered by this checkpoint then
	// lives in a sealed segment that can be dropped.
	cut := ws.log.ActiveSegment()
	err = ws.log.Rotate()
	m.addMu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("multiem: snapshot: %w", err)
	}

	err = wal.WriteFileAtomic(SnapshotFile(ws.cfg.Dir, seq), func(w io.Writer) error { return m.saveView(v, w) })
	if err != nil {
		return 0, fmt.Errorf("multiem: snapshot: %w", err)
	}

	// The checkpoint is durable: the log prefix and older snapshots are now
	// redundant. Failures past this point leave extra files, not lost data,
	// so they surface as errors but the snapshot stands.
	ws.snapshotSeq.Store(seq)
	ws.snapshots.Add(1)
	if err := errors.Join(ws.log.DropSegmentsThrough(cut), DropOldSnapshots(ws.cfg.Dir, ws.cfg.SnapshotKeep)); err != nil {
		return seq, fmt.Errorf("multiem: snapshot taken, cleanup failed: %w", err)
	}
	return seq, nil
}

// defaultSnapshotKeep is WALConfig.SnapshotKeep's default.
const defaultSnapshotKeep = 2

// DropOldSnapshots removes all but the newest keep checkpoints from a
// durability directory or a follower's mirror of one; keep <= 0 means
// WALConfig.SnapshotKeep's default. Retaining more than the latest one keeps
// a snapshot a follower is mid-download alive across the next checkpoint.
func DropOldSnapshots(dir string, keep int) error {
	seqs, err := ListSnapshots(dir)
	if err != nil {
		return err
	}
	if keep <= 0 {
		keep = defaultSnapshotKeep
	}
	var errs []error
	for i := 0; i < len(seqs)-keep; i++ { // seqs ascend; drop the oldest
		if err := os.Remove(SnapshotFile(dir, seqs[i])); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// ListSnapshots returns the checkpoint sequences present in a durability
// directory, ascending. Replication primaries publish these in the manifest.
func ListSnapshots(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("multiem: wal dir: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, snapshotPrefix) || !strings.HasSuffix(name, ".bin") {
			continue
		}
		n, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapshotPrefix), ".bin"), 10, 64)
		if perr != nil {
			return nil, fmt.Errorf("multiem: wal dir: unparseable snapshot name %q", name)
		}
		seqs = append(seqs, n)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// CloseWAL stops the background loops and flushes and fsyncs the log — the
// graceful-shutdown path. The matcher remains usable for reads;
// further AddRecords fail (their log is closed). Safe to call more than
// once, and a no-op for an in-memory matcher.
func (m *Matcher) CloseWAL() error {
	ws := m.wal
	if ws == nil {
		return nil
	}
	ws.closeOnce.Do(func() {
		close(ws.stop)
		ws.loops.Wait()
		ws.closeErr = ws.log.Close()
	})
	return ws.closeErr
}

// WALStats reports the durability subsystem's state; without a WAL, what the
// matcher loaded and replayed (a follower's catch-up) only.
func (m *Matcher) WALStats() WALStats {
	st := WALStats{LoadSeconds: m.loadTime.Seconds(), LoadBytes: m.loadBytes}
	if rs := m.replayed.Load(); rs != nil {
		st.ReplayedBatches, st.ReplayedRows = rs.batches, rs.rows
		st.ReplaySeconds, st.ReplayReaderBusySeconds = rs.wall.Seconds(), rs.readerBusy.Seconds()
		st.ReplayShardBusySeconds = make([]float64, len(rs.shardBusy))
		for s, d := range rs.shardBusy {
			st.ReplayShardBusySeconds[s] = d.Seconds()
			st.ReplaySkippedLinks += rs.skipped[s]
		}
	}
	ws := m.wal
	if ws == nil {
		return st
	}
	st.Enabled, st.Dir, st.Fsync, st.Stats = true, ws.cfg.Dir, ws.policy.String(), ws.log.Stats()
	st.NextSeq, st.SnapshotSeq = ws.seq.Load(), ws.snapshotSeq.Load()
	st.Snapshots, st.SnapshotErrors = ws.snapshots.Load(), ws.snapErrs.Load()
	return st
}

// WALSyncDurations freezes the log's fsync latency distribution; nil when the
// matcher has no WAL attached.
func (m *Matcher) WALSyncDurations() *hist.Snapshot {
	if m.wal == nil {
		return nil
	}
	return m.wal.log.SyncDurations()
}
