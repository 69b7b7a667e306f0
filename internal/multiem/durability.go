package multiem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
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
// crashed, down to its Save bytes. A follower applies shipped records the
// same way, one batch at a time under the views it serves.
//
// Log record layout (one per batch; uvarints minimal, little-endian):
//
//	format   byte     recordFormat
//	seq      uvarint  batch sequence number
//	nShards  uvarint  shard count of the matcher that decided the batch
//	nRows    uvarint  rows in the batch (>= 1)
//	per row:
//	  target uvarint  0 = not absorbed, else 1 + local*nShards + shard of the
//	                  pre-batch tuple decide chose
//	  dist   float32  only when target != 0: the distance to that tuple
//	  nVals  uvarint; nVals x (len uvarint + bytes)
//
// The decisions are decide's, taken before chain runs: chain reads nothing
// but the plan, so replay runs it again instead of logging its output. A log
// is bound to the shard layout it names — tuples are addressed by (shard,
// local), exactly as in the tuple IDs clients were acknowledged with.
//
// The wal package makes a record atomic — a crash mid-append leaves a torn
// tail that replay stops at and the next append truncates — so a batch is
// either wholly in the log or not there at all. Batches are serialized by
// addMu, so sequence numbers in the log ascend by one.

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
	// Enabled is false for an in-memory matcher; all other fields are zero.
	Enabled bool `json:"enabled"`
	// Dir is the durability directory.
	Dir string `json:"dir,omitempty"`
	// Fsync is the active sync policy.
	Fsync string `json:"fsync,omitempty"`
	// Segments is the live log segment count.
	Segments int `json:"segments"`
	// Bytes is the total live log size in bytes.
	Bytes int64 `json:"bytes"`
	// Appends counts log records written since open.
	Appends int64 `json:"appends"`
	// Syncs counts fsyncs since open.
	Syncs int64 `json:"syncs"`
	// TornTruncations counts torn-tail truncations of the log.
	TornTruncations int64 `json:"torn_truncations"`
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
	// ReplayedBatches and ReplayedRows count what RecoverMatcher replayed
	// from the log when this matcher was opened, and ReplaySeconds is how
	// long that took: rows per second of replay is the number a snapshot
	// interval is sized from. Zero after a promotion (nothing was replayed).
	ReplayedBatches int64   `json:"replayed_batches"`
	ReplayedRows    int64   `json:"replayed_rows"`
	ReplaySeconds   float64 `json:"replay_seconds"`
	// ReplayReaderBusySeconds and ReplayShardBusySeconds say where
	// ReplaySeconds went: replay is one reader (decode, embed, chain) feeding
	// one apply stream per shard, and these are the seconds each spent working
	// rather than waiting for the other side. Every shard near ReplaySeconds:
	// replay is insert-bound; one shard near it and the rest low: absorption
	// is skewed; the reader near it: embed-bound. Empty after a promotion.
	ReplayReaderBusySeconds float64   `json:"replay_reader_busy_seconds"`
	ReplayShardBusySeconds  []float64 `json:"replay_shard_busy_seconds,omitempty"`
	// ReplaySkippedLinks counts the index nodes replay appended without
	// linking them into a graph, because a compaction later in the log
	// discarded them: graph work the crashed process did and recovery did not
	// have to. Zero when the replayed log crossed no compaction.
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

	// replayed is what recovery replayed from the log, and where the time
	// went; written once, before the matcher is shared.
	replayed replayStats

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

func snapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d.bin", snapshotPrefix, seq))
}

// LatestSnapshot reports the newest checkpoint in a durability (or mirror)
// directory: its path, the sequence it covers, and whether one exists — the
// last of ListSnapshots. Incomplete checkpoints never surface here: Snapshot
// writes to a .tmp and renames atomically.
func LatestSnapshot(dir string) (path string, seq uint64, ok bool, err error) {
	seqs, err := ListSnapshots(dir)
	if err != nil || len(seqs) == 0 {
		return "", 0, false, err
	}
	seq = seqs[len(seqs)-1]
	return snapshotPath(dir, seq), seq, true, nil
}

// SnapshotFile names the checkpoint file covering seq under a durability
// directory; replication mirrors use it to lay files out exactly like the
// primary.
func SnapshotFile(dir string, seq uint64) string { return snapshotPath(dir, seq) }

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
//     and the normal apply (replayWAL) — so the recovered state is
//     bit-identical to the matcher that crashed. A log written over another
//     state fails with the ErrLogMismatch of its lowest failing batch and no
//     matcher is returned; nothing in the directory is touched. A torn tail
//     (crash mid-append) ends replay cleanly at the last whole batch; the
//     next append truncates it.
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
	if ws.replayed, err = m.replayWAL(ws.log, snapSeq, replayInflightBytes); err != nil {
		ws.log.Close()
		return nil, err
	}
	// Replay applied batches to writer state only (no per-batch views — no
	// reader exists yet); publish the recovered state once, at the epoch the
	// replayed batch count implies, before anything serves or snapshots it.
	m.publishAll(uint64(ws.replayed.batches))
	ws.seq.Store(snapSeq + uint64(ws.replayed.batches))
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
		cfg.SnapshotKeep = 2
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

// walAppendBatch logs one ingest batch — its rows and the decisions p holds
// for them — as one record, fsynced in place under the "always" policy. Called
// from commitBatch under addMu, after decide and before chain (which overwrites
// the decision of a row it moves to a forming tuple) and before any state
// changes.
//
// A failed append rejects the batch (in-memory state untouched) and poisons
// the WAL: every later ingest fails too. Like any commit-time I/O error, the
// caller-visible outcome is indeterminate: if the record did reach the log
// before the failure (say, only the fsync failed), recovery will find the
// batch and apply it; if it did not, the torn tail is truncated. Either way
// the recovered state is consistent, and ingest resumes after the restart —
// failing closed is what keeps this sequence number from being written twice.
func (m *Matcher) walAppendBatch(p *batchPlan) error {
	ws := m.wal
	if ws.brokenErr != nil {
		return fmt.Errorf("multiem: wal failed earlier, ingest is fenced (restart to recover): %w", ws.brokenErr)
	}
	rec := batchRecord{seq: ws.seq.Load(), nShards: len(m.shards), rows: p.values, decisions: p.rows}
	err := ws.log.Append(encodeBatchRecord(&rec))
	if err == nil && ws.policy == wal.SyncAlways {
		err = ws.log.Sync()
	}
	if err != nil {
		ws.brokenErr = err
		return fmt.Errorf("multiem: wal append: %w", err)
	}
	ws.seq.Add(1)
	return nil
}

// recordFormat opens every batch record. The segment magic already keeps
// records of another layout away from this decoder; the byte makes a record
// say what it is on its own.
const recordFormat = 2

// batchRecord is one log record: a batch's rows and what decide settled for
// each — absorb, shard, local and dist of decisions[i] belong to rows[i];
// batch is chain's to fill and is not logged.
type batchRecord struct {
	seq       uint64
	nShards   int
	rows      [][]string
	decisions []addDecision
}

// encodeBatchRecord frames one batch for the log.
func encodeBatchRecord(rec *batchRecord) []byte {
	buf := binary.AppendUvarint([]byte{recordFormat}, rec.seq)
	buf = binary.AppendUvarint(buf, uint64(rec.nShards))
	buf = binary.AppendUvarint(buf, uint64(len(rec.rows)))
	for i, row := range rec.rows {
		if d := &rec.decisions[i]; d.absorb {
			buf = binary.AppendUvarint(buf, 1+uint64(d.local)*uint64(rec.nShards)+uint64(d.shard))
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(d.dist))
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(row)))
		for _, v := range row {
			buf = append(binary.AppendUvarint(buf, uint64(len(v))), v...)
		}
	}
	return buf
}

// ErrCorruptRecord is returned (wrapped) for a log record payload that does
// not decode as a batch.
var ErrCorruptRecord = errors.New("multiem: corrupt batch record")

// decodeBatchRecord parses one log record back into its batch. The payload
// may come from the network (a follower decodes whatever its primary URL
// serves), so every count is checked against the bytes left before it sizes
// an allocation: a row costs at least two bytes (target and value count), a
// value at least its length byte. Memory stays within a constant factor of
// len(payload). Exactly the bytes encodeBatchRecord writes are accepted — a
// uvarint longer than its value needs, a shard count or tuple index no
// matcher can have, and trailing bytes are all corruption — so an accepted
// payload re-encodes to itself.
func decodeBatchRecord(payload []byte) (rec batchRecord, err error) {
	p := payload
	uvarint := func() (uint64, bool) { // next count: present, not overflowing, minimal
		v, n := binary.Uvarint(p)
		if n <= 0 || (n > 1 && p[n-1] == 0) {
			return 0, false
		}
		p = p[n:]
		return v, true
	}
	corrupt := func(what string) (batchRecord, error) {
		return batchRecord{}, fmt.Errorf("%w: %s at byte %d of %d", ErrCorruptRecord, what, len(payload)-len(p), len(payload))
	}
	if len(p) == 0 || p[0] != recordFormat {
		return corrupt("format byte")
	}
	p = p[1:]
	seq, ok := uvarint()
	if !ok {
		return corrupt("sequence number")
	}
	nShards, ok := uvarint()
	if !ok || nShards == 0 || nShards > maxSaneShards {
		return corrupt(fmt.Sprintf("shard count %d", nShards))
	}
	n, ok := uvarint()
	if !ok || n == 0 || n > uint64(len(p)/2) {
		return corrupt(fmt.Sprintf("row count %d", n))
	}
	rec = batchRecord{seq: seq, nShards: int(nShards), rows: make([][]string, n), decisions: make([]addDecision, n)}
	for i := range rec.rows {
		target, ok := uvarint()
		if !ok {
			return corrupt(fmt.Sprintf("row %d target", i))
		}
		if target != 0 {
			shard, local := (target-1)%nShards, (target-1)/nShards
			if local > tupleLocalMask || len(p) < 4 {
				return corrupt(fmt.Sprintf("row %d target %d", i, target))
			}
			dist := math.Float32frombits(binary.LittleEndian.Uint32(p))
			p = p[4:]
			rec.decisions[i] = addDecision{absorb: true, shard: int(shard), local: int(local), dist: dist}
		}
		nVals, ok := uvarint()
		if !ok || nVals > uint64(len(p)) {
			return corrupt(fmt.Sprintf("row %d value count %d", i, nVals))
		}
		rec.rows[i] = make([]string, nVals)
		for j := range rec.rows[i] {
			l, ok := uvarint()
			if !ok || l > uint64(len(p)) {
				return corrupt(fmt.Sprintf("row %d value %d length %d", i, j, l))
			}
			rec.rows[i][j] = string(p[:l])
			p = p[l:]
		}
	}
	if len(p) != 0 {
		return corrupt("trailing bytes")
	}
	return rec, nil
}

// replayInflightBytes bounds the embeddings of the rows the reader may have
// handed to the shard streams and not yet seen applied by all of them (their
// plans also hold the raw values and the decisions). A batch is admitted
// while fewer rows than the window — this over the row size, 16 384 rows at
// dim 256 — are in flight, so at most the window plus one batch ever are (an
// /add body, hence a batch, may be 64 MiB).
//
// The window is two things. It is the slack that absorbs the imbalance
// between shards — a 16-row batch splits 10/6 as often as 8/8 — for which a
// few hundred rows would do. And it is how far the reader sees ahead of the
// streams, which is what deferred linking needs: a stream skips the graph
// work of a batch only when the reader has already planned the compaction
// that discards it. Replaying serve_mixed's log in-process (seed 1: 12 000
// rows in 1 000 batches, the two shards compacting after batches 825 and
// 863; medians of five recoveries, two alternations, 2 cores) took 0.82 s
// with linking eager, 0.74–0.93 s with a 1 024-row window, 0.67–0.69 s with
// 4 096, 0.46–0.49 s with 16 384 and 0.52–0.53 s with 65 536: the window
// pays once it spans the stretch of log before a compaction. A log whose
// compactions lie further apart than that replays exactly all the same, but
// saves only the inserts within one window before each compaction.
const replayInflightBytes = 16 << 20

// replayStats is what a replay reports of itself.
type replayStats struct {
	batches, rows int64
	// wall is the whole replay. readerBusy is the reader's share of it —
	// reading, decoding, embedding, chaining; its waits for the window to open
	// excluded — and shardBusy[s] shard stream s's time checking, applying and
	// linking, its waits for the reader excluded.
	wall, readerBusy time.Duration
	shardBusy        []time.Duration
	// peakRows is the most rows that were in flight at once.
	peakRows int
	// compactAt[s] lists the batches after which the reader foresaw shard s
	// compact; deferred[s] counts the batches shard s applied without linking,
	// and skipped[s] the nodes it appended that a compaction then discarded
	// unlinked.
	compactAt [][]uint64
	deferred  []int
	skipped   []int64
}

// indexForecast is the reader's model of one shard's index: its length and
// live count, advanced from the plans alone — apply indexes one node per
// tuple a batch creates on the shard and one per pre-batch tuple it absorbs
// rows into — through the compactDue test maybeCompact runs.
type indexForecast struct {
	indexLen, live int
	touched        []int
}

// advance moves the forecast for shard s past plan p and reports whether the
// shard compacts after it.
func (f *indexForecast) advance(p *batchPlan, s int) bool {
	if len(p.perShard[s]) == 0 {
		return false // no share, no apply, no maybeCompact
	}
	f.touched = f.touched[:0]
	for _, i := range p.perShard[s] {
		if d := &p.rows[i]; d.absorb {
			f.touched = append(f.touched, d.local)
		}
	}
	slices.Sort(f.touched)
	f.indexLen += len(slices.Compact(f.touched))
	for t := range p.tuples {
		if p.tuples[t].shard == s {
			f.indexLen++
			f.live++
		}
	}
	if !compactDue(f.indexLen, f.live) {
		return false
	}
	f.indexLen = f.live
	return true
}

// replayItem is one logged batch on its way through the shard streams.
type replayItem struct {
	seq uint64
	p   *batchPlan
	// logged are the decisions as the record holds them: chain overwrites
	// p.rows[i] for a row it moves to a forming tuple, and the shard the log
	// sent that row to still has to check it.
	logged []addDecision
	baseID int
	// pending counts the streams that have not finished with the batch; the
	// last one returns its rows to the window.
	pending atomic.Int32
}

// replayer is the state of one replayWAL call: the reader (read, on the
// caller's goroutine) and one stream goroutine per shard.
type replayer struct {
	m        *Matcher
	startSeq uint64
	st       replayStats
	// queues[s] feeds shard s's stream every batch, in log order.
	queues []chan *replayItem
	// window is replayWAL's windowBytes in rows of this matcher's dimension.
	window int
	// forecasts[s] is the reader's model of shard s's index; linkFrom[s] is one
	// past the last batch after which it foresees shard s compact. A stream
	// defers linking for a batch below its shard's linkFrom: the compaction
	// discards whatever that batch indexes.
	forecasts []indexForecast
	linkFrom  []atomic.Uint64

	// mu guards the window (inflight, with freed signalled when rows return;
	// blocked is how long the reader waited on it) and the failure.
	mu       sync.Mutex
	freed    sync.Cond
	inflight int
	blocked  time.Duration
	// The failure with the lowest (failSeq, failRow) seen so far. failSeq is
	// math.MaxUint64 while there is none, and atomic so that every stage reads
	// it without the lock: none touches a batch at or past it.
	failSeq atomic.Uint64
	failRow int
	failErr error
}

// errReplayStopped ends the log scan once a shard stream has failed.
var errReplayStopped = errors.New("multiem: wal replay stopped")

// replayWAL redoes every batch logged at or after startSeq and reports what it
// replayed. Records below startSeq are covered by the snapshot (their segment
// is not dropped yet); past that the log must ascend by one — a single file
// cannot strand a whole record beyond a hole without failing its CRC, so
// anything else is corruption under every fsync policy. windowBytes bounds
// the embeddings in flight between the reader and the streams; recovery
// passes replayInflightBytes.
//
// Redo is local to the shard it touches (ARIES), and shards share nothing, so
// replay is a pipeline with no join between batches — a live batch needs one
// for its atomic publish and its acknowledgement, replay has neither. One
// reader walks the log: it decodes a record, makes its plan (planFromRecord),
// runs chain — which reads only the plan, and is the one cross-shard step —
// hands out the entity IDs, and sends the plan to every shard's stream. A
// stream takes the batches in log order and for each checks the logged
// decisions that target its shard (checkShard; the shard's state is the
// pre-batch one, its own share of the batch comes next), then runs the same
// shard.apply and maybeCompact live ingest runs — the same inserts per shard
// in the same order, so graphs, RNG streams, compaction points and Save bytes
// are the primary's. A compaction failure leaves the batch applied and the
// shard on its previous index, as it does live.
//
// Replay never searches, and a compaction rebuilds a shard's graph from its
// live centroids alone, so the links of a node indexed before the shard's
// last compaction are never read. The reader runs maybeCompact's trigger over
// each plan (indexForecast) and tells the streams where it foresees each
// shard compact; a stream only Appends the nodes of a batch at or before a
// foreseen compaction (shard.deferLinks), and links whatever is pending at
// its next Add or when its queue closes. The forecast decides only when
// linking happens, never what is linked — Link links every appended node in
// node order, as their Adds would have — so a wrong or late forecast costs
// time, not exactness. Nothing else happens: no logging
// (the records are being read back), no spans or counters (replayed history
// would pollute the serving histograms) and no views — no reader exists until
// RecoverMatcher publishes once, so every chunk stays writer-owned and is
// mutated in place. addMu is held throughout.
//
// On a failure — a corrupt or out-of-sequence record, a plan or a shard check
// that refuses (ErrLogMismatch) — the stages stop and the error of the lowest
// failing batch (and in it, row) is returned: a stream that failed at batch f
// does not stop the others short of f, so which failure is reported does not
// depend on which stream ran ahead. The shards are then partly applied and the
// matcher must be dropped. A torn tail is not a failure: every whole record
// before it was delivered, the batch it belonged to was never acknowledged,
// and the next append truncates it.
func (m *Matcher) replayWAL(l *wal.Log, startSeq uint64, windowBytes int) (replayStats, error) {
	m.addMu.Lock()
	defer m.addMu.Unlock()
	n := len(m.shards)
	r := &replayer{
		m:         m,
		startSeq:  startSeq,
		queues:    make([]chan *replayItem, n),
		window:    max(1, windowBytes/(4*m.dim)),
		forecasts: make([]indexForecast, n),
		linkFrom:  make([]atomic.Uint64, n),
	}
	r.st.shardBusy = make([]time.Duration, n)
	r.st.compactAt = make([][]uint64, n)
	r.st.deferred = make([]int, n)
	r.st.skipped = make([]int64, n)
	r.freed.L = &r.mu
	r.failSeq.Store(math.MaxUint64)
	var streams sync.WaitGroup
	for s, sh := range m.shards {
		r.forecasts[s] = indexForecast{indexLen: sh.index.Len(), live: sh.tuples.len()}
		// Every batch in flight holds at least one row, so the window admits at
		// most r.window of them and a send never blocks: the reader waits in one
		// place only, admit.
		r.queues[s] = make(chan *replayItem, r.window)
		streams.Add(1)
		go func(s int) {
			defer streams.Done()
			r.stream(s)
		}(s)
	}
	t0 := time.Now()
	err := l.Replay(r.read)
	if err != nil && !errors.Is(err, errReplayStopped) && !errors.Is(err, wal.ErrTornWrite) {
		r.fail(r.nextSeq(), -1, err)
	}
	r.st.readerBusy = time.Since(t0) - r.blocked
	for _, q := range r.queues {
		close(q)
	}
	streams.Wait()
	r.st.wall = time.Since(t0)
	if r.failErr != nil {
		return replayStats{}, fmt.Errorf("multiem: wal replay: %w", r.failErr)
	}
	return r.st, nil
}

// nextSeq is the sequence number the next record to replay must carry.
func (r *replayer) nextSeq() uint64 { return r.startSeq + uint64(r.st.batches) }

// read is the reader's step for one log record.
func (r *replayer) read(payload []byte) error {
	if r.failSeq.Load() != math.MaxUint64 {
		return errReplayStopped
	}
	m, want := r.m, r.nextSeq()
	rec, err := decodeBatchRecord(payload)
	switch {
	case err != nil:
		return err
	case rec.seq < r.startSeq:
		return nil
	case rec.seq != want:
		return fmt.Errorf("log holds batch %d where batch %d belongs", rec.seq, want)
	}
	p, err := m.planFromRecord(&rec)
	if err != nil {
		return fmt.Errorf("apply logged batch %d: %w", rec.seq, err)
	}
	it := &replayItem{seq: rec.seq, p: p, logged: slices.Clone(p.rows), baseID: m.nextID}
	m.chain(p)
	m.nextID += len(p.rows)
	for s := range r.forecasts {
		if r.forecasts[s].advance(p, s) {
			r.st.compactAt[s] = append(r.st.compactAt[s], rec.seq)
			r.linkFrom[s].Store(rec.seq + 1)
		}
	}
	it.pending.Store(int32(len(r.queues)))
	r.admit(len(p.rows))
	for _, q := range r.queues {
		q <- it
	}
	r.st.batches++
	r.st.rows += int64(len(p.rows))
	return nil
}

// admit waits until fewer than r.window rows are in flight and adds n to them.
func (r *replayer) admit(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.inflight >= r.window {
		t0 := time.Now()
		for r.inflight >= r.window {
			r.freed.Wait()
		}
		r.blocked += time.Since(t0)
	}
	r.inflight += n
	r.st.peakRows = max(r.st.peakRows, r.inflight)
}

// stream is shard s's side of the replay: its share of every batch below the
// lowest failure, in log order. A batch past a failure is only counted off, so
// the window keeps opening until the reader has noticed. When the queue
// closes, the stream links what its deferred batches left pending.
func (r *replayer) stream(s int) {
	m, sh, cfg := r.m, r.m.shards[s], r.m.shardHNSWConfig(s)
	var out []AddResult // what apply reports per row; replay has no one to tell
	for it := range r.queues[s] {
		if it.seq < r.failSeq.Load() {
			t0 := time.Now()
			if row, err := m.checkShard(s, it.logged, it.p.vecs); err != nil {
				r.fail(it.seq, row, fmt.Errorf("apply logged batch %d: %w", it.seq, err))
			} else if len(it.p.perShard[s]) > 0 {
				out = slices.Grow(out[:0], len(it.p.rows))[:len(it.p.rows)]
				sh.deferLinks = it.seq < r.linkFrom[s].Load()
				if sh.deferLinks {
					r.st.deferred[s]++
				}
				sh.apply(s, it.p, it.baseID, out)
				unlinked, compactions := sh.index.Unlinked(), sh.compactions
				_ = sh.maybeCompact(cfg, m.dim) // the batch is applied either way
				if sh.compactions > compactions {
					r.st.skipped[s] += int64(unlinked)
				}
			}
			r.st.shardBusy[s] += time.Since(t0)
		}
		if it.pending.Add(-1) == 0 {
			r.mu.Lock()
			r.inflight -= len(it.p.rows)
			r.mu.Unlock()
			r.freed.Signal()
		}
	}
	// A failed replay's matcher is dropped; a finished one is published next,
	// and a view needs the whole graph.
	sh.deferLinks = false
	if r.failSeq.Load() == math.MaxUint64 {
		t0 := time.Now()
		sh.index.Link()
		r.st.shardBusy[s] += time.Since(t0)
	}
}

// fail records a failure at batch seq (row -1 when it is not a row's), keeping
// the lowest.
func (r *replayer) fail(seq uint64, row int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.failSeq.Load(); seq < f || seq == f && row < r.failRow {
		r.failSeq.Store(seq)
		r.failRow, r.failErr = row, err
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

	path := snapshotPath(ws.cfg.Dir, seq)
	tmp := path + ".tmp"
	err = func() error {
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		if err := m.saveView(v, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}()
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("multiem: snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("multiem: snapshot: %w", err)
	}
	syncDir(ws.cfg.Dir) // make the rename itself durable

	// The checkpoint is durable: the log prefix and older snapshots are now
	// redundant. Failures past this point leave extra files, not lost data,
	// so they surface as errors but the snapshot stands.
	ws.snapshotSeq.Store(seq)
	ws.snapshots.Add(1)
	if err := errors.Join(ws.log.DropSegmentsThrough(cut), dropOldSnapshots(ws.cfg.Dir, ws.cfg.SnapshotKeep)); err != nil {
		return seq, fmt.Errorf("multiem: snapshot taken, cleanup failed: %w", err)
	}
	return seq, nil
}

// dropOldSnapshots removes all but the newest keep checkpoints. Retaining
// more than the latest one keeps a snapshot a follower is mid-download
// alive across the next checkpoint.
func dropOldSnapshots(dir string, keep int) error {
	seqs, err := ListSnapshots(dir)
	if err != nil {
		return err
	}
	if keep < 1 {
		keep = 1
	}
	var errs []error
	for i := 0; i < len(seqs)-keep; i++ { // seqs ascend; drop the oldest
		if err := os.Remove(snapshotPath(dir, seqs[i])); err != nil {
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

// syncDir fsyncs a directory so a just-renamed file survives power loss;
// best-effort (some platforms refuse directory fsyncs).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
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

// WALStats reports the durability subsystem's state; the zero
// value (Enabled=false) for an in-memory matcher.
func (m *Matcher) WALStats() WALStats {
	ws := m.wal
	if ws == nil {
		return WALStats{}
	}
	ls := ws.log.Stats()
	shardBusy := make([]float64, len(ws.replayed.shardBusy))
	for s, d := range ws.replayed.shardBusy {
		shardBusy[s] = d.Seconds()
	}
	var skipped int64
	for _, n := range ws.replayed.skipped {
		skipped += n
	}
	return WALStats{
		Enabled:         true,
		Dir:             ws.cfg.Dir,
		Fsync:           ws.policy.String(),
		Segments:        ls.Segments,
		Bytes:           ls.Bytes,
		Appends:         ls.Appends,
		Syncs:           ls.Syncs,
		TornTruncations: ls.TornTruncations,
		NextSeq:         ws.seq.Load(),
		SnapshotSeq:     ws.snapshotSeq.Load(),
		Snapshots:       ws.snapshots.Load(),
		SnapshotErrors:  ws.snapErrs.Load(),
		LoadSeconds:     m.loadTime.Seconds(),
		LoadBytes:       m.loadBytes,
		ReplayedBatches: ws.replayed.batches,
		ReplayedRows:    ws.replayed.rows,
		ReplaySeconds:   ws.replayed.wall.Seconds(),

		ReplayReaderBusySeconds: ws.replayed.readerBusy.Seconds(),
		ReplayShardBusySeconds:  shardBusy,
		ReplaySkippedLinks:      skipped,
	}
}

// WALSyncDurations freezes the log's fsync latency distribution; nil when the
// matcher has no WAL attached.
func (m *Matcher) WALSyncDurations() *hist.Snapshot {
	if m.wal == nil {
		return nil
	}
	return m.wal.log.SyncDurations()
}
