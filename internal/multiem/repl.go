package multiem

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/wal"
)

// Replicator applies a primary's shipped WAL stream to a follower matcher,
// one batch record at a time: the decisions the primary logged, checked
// against the follower's state, then the chain, apply and publish live ingest
// runs — so the follower's state is bit-identical to the primary's at every
// applied sequence, without searching for anything. The wrapped matcher is
// fenced read-only (AddRecords returns ErrReadOnly) until Promote.
//
// The replication layer feeds it raw log-record payloads in log order as
// they arrive in the mirrored segments (Apply). Apply must be called from one
// goroutine — the fetch loop; NextSeq is safe from any goroutine (the stats
// endpoint reads it while the loop runs).
type Replicator struct {
	m *Matcher
	// nextSeq is the next batch sequence to apply; everything below it is
	// already part of the matcher state.
	nextSeq atomic.Uint64
}

// NewReplicator wraps a follower matcher whose state covers every batch
// below startSeq — typically one just loaded from the primary's snapshot
// at that sequence — and fences it read-only.
func NewReplicator(m *Matcher, startSeq uint64) *Replicator {
	m.readOnly.Store(true)
	r := &Replicator{m: m}
	r.nextSeq.Store(startSeq)
	return r
}

// Matcher returns the wrapped matcher (for serving reads).
func (r *Replicator) Matcher() *Matcher { return r.m }

// NextSeq reports the next batch sequence the replicator wants; the
// follower's applied position is NextSeq()-1. Safe for concurrent use.
func (r *Replicator) NextSeq() uint64 { return r.nextSeq.Load() }

// ErrSeqGap reports a shipped record past the replicator's position: the
// batches in between never arrived (the primary checkpointed them away, or
// the mirror belongs to another history). Only a resync from a snapshot can
// catch up.
var ErrSeqGap = errors.New("multiem: replicate: gap in the shipped batch sequence")

// ErrPromoted reports an Apply on a matcher that has a WAL attached: Promote
// has run (whether or not it succeeded), so the matcher logs what it ingests
// under its own sequence numbers and a shipped batch has no place in that log.
var ErrPromoted = errors.New("multiem: matcher has a WAL attached (promoted); shipped batches are refused")

// Apply consumes one log record payload. A batch below the applied position
// is skipped (the mirrored segments overlap the bootstrap snapshot); the
// batch at the position commits the way a live ingest does — minus the log
// append, a follower having no WAL — so concurrent reads see it
// all-or-nothing and the follower serves consistent state the whole time it
// is catching up; a batch past it is ErrSeqGap. An undecodable payload fails
// with ErrCorruptRecord, a batch decided over another state or shard layout
// with ErrLogMismatch, and once Promote has attached a WAL the batch at the
// position is refused with ErrPromoted — nothing applied in any of them.
func (r *Replicator) Apply(payload []byte) error {
	m, next := r.m, r.nextSeq.Load()
	rec, err := decodeBatchRecord(payload)
	switch {
	case err != nil:
		return fmt.Errorf("multiem: replicate: %w", err)
	case rec.seq < next:
		return nil
	case rec.seq > next:
		return fmt.Errorf("%w: got batch %d, want %d", ErrSeqGap, rec.seq, next)
	}
	m.addMu.Lock()
	defer m.addMu.Unlock()
	if m.wal != nil { // under addMu, like Promote's write of it
		return fmt.Errorf("multiem: replicate: %w", ErrPromoted)
	}
	sp := m.obs().ingest.Start()
	// The plan the record holds, and every shard's check of it before any
	// shard changes: a refused batch leaves the follower serving what it had.
	p, err := m.planFromRecord(&rec)
	for s := 0; err == nil && s < len(m.shards); s++ {
		_, err = m.checkShard(s, p.rows, p.vecs)
	}
	if err != nil {
		return fmt.Errorf("multiem: replicate: apply logged batch %d: %w", rec.seq, err)
	}
	// A compaction failure comes back alongside the results, exactly as it did
	// on the original ingest; the batch is applied either way.
	_, _ = m.commitBatch(&sp, p)
	r.nextSeq.Add(1)
	return nil
}

// Promote turns the follower into a primary: the mirrored directory is
// reopened as a live WAL for append, an immediate checkpoint truncates away
// whatever the mirror holds past the applied position — whole records the
// fetch loop mirrored but never applied, whose sequence numbers are about to
// be reused — and the read-only fence lifts. cfg.Dir must be the mirror
// directory the follower has been applying from; its layout is already a
// valid durability directory.
//
// The caller must have stopped feeding Apply first (a batch delivered later
// anyway is refused, ErrPromoted). After Promote the matcher behaves exactly
// like one returned by RecoverMatcher: AddRecords logs under cfg's fsync
// policy, the snapshotter runs, CloseWAL shuts down.
func (r *Replicator) Promote(cfg WALConfig) error {
	m := r.m
	cfg, policy, err := normalizeWALConfig(cfg)
	if err != nil {
		return err
	}
	m.addMu.Lock()
	if m.wal != nil {
		m.addMu.Unlock()
		return errors.New("multiem: promote: matcher already has a WAL attached")
	}
	ws := &walState{cfg: cfg, policy: policy, stop: make(chan struct{})}
	if ws.log, err = wal.Open(LogDir(cfg.Dir), wal.Options{SegmentMaxBytes: cfg.SegmentMaxBytes}); err != nil {
		m.addMu.Unlock()
		return err
	}
	ws.seq.Store(r.nextSeq.Load())
	m.wal = ws
	m.addMu.Unlock()

	// Checkpoint before accepting writes: the checkpoint covers the applied
	// state and drops every mirrored segment, so no stale record can share a
	// sequence number with the batches this primary is about to log.
	if _, err := m.Snapshot(); err != nil {
		return fmt.Errorf("multiem: promote checkpoint: %w", err)
	}
	ws.startLoops(m)
	m.readOnly.Store(false)
	return nil
}
