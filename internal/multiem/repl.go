package multiem

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/wal"
)

// Replicator applies a primary's shipped WAL stream to a follower matcher
// through recovery's replay (replayWAL), one round per fetch, keeping it
// bit-identical to the primary at every published sequence; the matcher is
// fenced read-only (ErrReadOnly) until Promote. Apply must be called from one
// goroutine — the fetch loop; NextSeq is safe from any.
type Replicator struct {
	m *Matcher
	// nextSeq is the next batch sequence to apply; everything below it is
	// already part of the published state.
	nextSeq atomic.Uint64
	// refused is the ErrLogMismatch of a refused round; guarded by addMu.
	refused error
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

// NextSeq reports the next batch sequence the replicator wants; the
// follower's applied position is NextSeq()-1. Safe for concurrent use.
func (r *Replicator) NextSeq() uint64 { return r.nextSeq.Load() }

// ErrPromoted reports an Apply on a matcher that has a WAL attached: Promote
// has run (whether or not it succeeded), so the matcher logs what it ingests
// under its own sequence numbers and a shipped batch has no place in that log.
var ErrPromoted = errors.New("multiem: matcher has a WAL attached (promoted); shipped batches are refused")

// Apply replays one round — every record scan delivers, in log order; scan
// has the shape of wal.Log.Replay — and publishes it as one view, so reads
// see the round all-or-nothing. Batches below NextSeq are skipped (the
// mirrored segments overlap the bootstrap snapshot). A round cut short — by a
// batch past NextSeq (ErrSeqGap), an undecodable payload (ErrCorruptRecord),
// scan's own error or Promote (ErrPromoted) — publishes the batches before it.
// A refused batch (ErrLogMismatch: decided over another state or shard layout)
// may leave the shards past the published view, so every later round, and
// Promote, return the refusal until a resync replaces the follower.
func (r *Replicator) Apply(scan func(fn func(payload []byte) error) error) error {
	r.m.addMu.Lock()
	defer r.m.addMu.Unlock()
	if r.refused != nil {
		return r.refused
	}
	batches, err := r.m.replayWAL(scan, r.nextSeq.Load(), replayInflightBytes)
	r.nextSeq.Add(uint64(batches))
	if errors.Is(err, ErrLogMismatch) {
		r.refused = err
	}
	return err
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
	if r.refused != nil {
		m.addMu.Unlock()
		return fmt.Errorf("multiem: promote: %w", r.refused)
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
