package multiem

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// replayInflightBytes bounds the embeddings of the rows the reader may have
// handed to the shard streams and not yet seen applied by all of them (their
// plans also hold the raw values and the decisions). A batch is admitted
// while fewer rows than the window — this over the row size, 16 384 rows at
// dim 256 — are in flight, so at most the window plus one batch ever are (an
// /add body, hence a batch, may be 64 MiB). That bound on memory is the
// window's one job: the slack it leaves between the reader and the streams,
// which absorbs the imbalance between shards (a 16-row batch splits 10/6 as
// often as 8/8), would need only a few hundred rows.
const replayInflightBytes = 16 << 20

// replayStats is what one replayWAL call reports of itself, or (plus) what
// WALStats reports summed over every call a matcher ran.
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
	// skipped[s] counts the nodes shard s's stream appended that a compaction
	// then discarded unlinked, as maybeCompact reports them.
	skipped []int64
}

// plus adds prev's (nil for none) WALStats fields to st's, reusing st's slices,
// which nothing else holds; peakRows stays st's own.
func (st replayStats) plus(prev *replayStats) *replayStats {
	if prev != nil {
		st.batches, st.rows = st.batches+prev.batches, st.rows+prev.rows
		st.wall, st.readerBusy = st.wall+prev.wall, st.readerBusy+prev.readerBusy
		for s := range st.shardBusy {
			st.shardBusy[s] += prev.shardBusy[s]
			st.skipped[s] += prev.skipped[s]
		}
	}
	return &st
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
	// pending counts the streams that have not finished with the batch, and
	// next is the batch after it in the log; both guarded by replayer.mu.
	pending int
	next    *replayItem
}

// replayer is the state of one replayWAL call: the reader (read, on the
// caller's goroutine) and one stream goroutine per shard.
type replayer struct {
	m        *Matcher
	startSeq uint64
	st       replayStats
	// tail is the last batch posted. Each stream walks the list from the head it
	// started at and nothing else holds it, so a batch all have passed is garbage.
	tail *replayItem
	// window is replayWAL's windowBytes in rows of this matcher's dimension.
	window int

	// mu guards the window (inflight, with freed signalled when rows return;
	// blocked is how long the reader waited on it), the list (posted signalled
	// when it grows; it ends in a batch of no rows) and the failure.
	mu            sync.Mutex
	freed, posted sync.Cond
	inflight      int
	blocked       time.Duration
	// The failure with the lowest (failSeq, failRow) seen so far. failSeq is
	// math.MaxUint64 while there is none, and atomic so that every stage reads
	// it without the lock: none touches a batch at or past it.
	failSeq atomic.Uint64
	failRow int
	failErr error
}

// errReplayStopped ends the log scan once a shard stream has failed.
var errReplayStopped = errors.New("multiem: wal replay stopped")

// ErrSeqGap reports a logged batch past the replay's position: the batches in
// between are not in the log, and only a snapshot catches a follower up.
var ErrSeqGap = errors.New("multiem: gap in the logged batch sequence")

// replayWAL redoes every batch scan delivers at or after startSeq, publishes
// the result and reports how many batches it replayed. scan has the shape of
// wal.Log.Replay: recovery passes its log's, a follower's round one over what
// it just mirrored. Records below startSeq are covered by the snapshot; past
// that the log must ascend by one (ErrSeqGap). windowBytes bounds the
// embeddings in flight between the reader and the streams. The caller holds
// addMu or owns the matcher alone; a matcher with a WAL attached has been
// promoted and replays nothing (ErrPromoted).
//
// Redo is local to the shard it touches (ARIES), and shards share nothing, so
// replay is a pipeline with no join between batches — a live batch needs one
// for its atomic publish and its acknowledgement, replay has neither. One
// reader walks the log: it decodes a record, makes its plan (planFromRecord),
// runs chain — which reads only the plan, and is the one cross-shard step —
// hands out the entity IDs, and posts the plan to the list every shard's
// stream walks. A stream takes the batches in log order and for each checks
// the logged decisions that target its shard (checkShard; the shard's state
// is the pre-batch one, its own share of the batch comes next), then runs the
// same shard.apply and maybeCompact live ingest runs — the same inserts per
// shard in the same order, so graphs, RNG streams, compaction points and Save
// bytes are the primary's.
//
// Replay never searches, so no stream links its graph until its list ends:
// apply and maybeCompact only Append (shard.apply), and a stream links what
// is pending once, after its last batch. Link links every appended node in
// node order, as their Adds would have, so the graph is the one live ingest
// built; and a node that a compaction discards before then is never linked
// at all. Nothing else happens: no logging (the records are being read back)
// and no spans or counters (replayed history would pollute the serving
// histograms). The shards change copy-on-write, as under live ingest, so the
// views readers hold stay intact; once every stream has finished and linked,
// one view of every shard is published, at the epoch plus the batches
// replayed.
//
// A failure the reader meets — a corrupt or out-of-sequence record, a plan
// that refuses, an error of scan's own — ends the replay there: the batches
// before it are published and counted, beside the error. A shard check that
// refuses (ErrLogMismatch) stops every stage and publishes nothing, the
// shards standing at different batches, and the error of the lowest failing
// batch (and in it, row) is returned — a stream that failed at batch f does
// not stop the others short of f, so the report does not depend on which ran
// ahead. Recovery drops the matcher on any failure; a Replicator refuses every
// round after a refusal. A torn tail is not a failure: every whole record
// before it was delivered, its batch was never acknowledged, and the next
// append truncates it.
func (m *Matcher) replayWAL(scan func(fn func(payload []byte) error) error, startSeq uint64, windowBytes int) (batches int64, err error) {
	if m.wal != nil {
		return 0, ErrPromoted
	}
	n := len(m.shards)
	r := &replayer{
		m:        m,
		startSeq: startSeq,
		tail:     &replayItem{}, // the head: no batch, only the first one's link
		window:   max(1, windowBytes/(4*m.dim)),
	}
	r.st.shardBusy = make([]time.Duration, n)
	r.st.skipped = make([]int64, n)
	r.freed.L, r.posted.L = &r.mu, &r.mu
	r.failSeq.Store(math.MaxUint64)
	var streams sync.WaitGroup
	for s := range m.shards {
		streams.Add(1)
		go r.stream(s, r.tail, &streams)
	}
	t0 := time.Now()
	err = scan(r.read)
	if err != nil && !errors.Is(err, errReplayStopped) && !errors.Is(err, wal.ErrTornWrite) {
		r.fail(r.nextSeq(), -1, err)
	}
	r.st.readerBusy = time.Since(t0) - r.blocked
	r.post(&replayItem{p: &batchPlan{}})
	streams.Wait()
	if r.failSeq.Load() < r.nextSeq() { // a stream refused: the shards stand at different batches
		return 0, fmt.Errorf("multiem: wal replay: %w", r.failErr)
	}
	if r.st.batches > 0 {
		m.publishAll(m.state.Load().epoch + uint64(r.st.batches))
	}
	r.st.wall = time.Since(t0)
	m.replayed.Store(r.st.plus(m.replayed.Load()))
	if r.failErr != nil {
		return r.st.batches, fmt.Errorf("multiem: wal replay: %w", r.failErr)
	}
	return r.st.batches, nil
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
		return fmt.Errorf("%w: log holds batch %d where batch %d belongs", ErrSeqGap, rec.seq, want)
	}
	p, err := m.planFromRecord(&rec)
	if err != nil {
		return fmt.Errorf("apply logged batch %d: %w", rec.seq, err)
	}
	it := &replayItem{seq: rec.seq, p: p, logged: slices.Clone(p.rows), baseID: m.nextID, pending: len(m.shards)}
	m.chain(p)
	m.nextID += len(p.rows)
	r.post(it)
	r.st.batches++
	r.st.rows += int64(len(p.rows))
	return nil
}

// post waits until fewer than r.window rows are in flight, adds the rows of it
// to them and appends it to the list: the one place the reader waits.
func (r *replayer) post(it *replayItem) {
	r.mu.Lock()
	if r.inflight >= r.window {
		t0 := time.Now()
		for r.inflight >= r.window {
			r.freed.Wait()
		}
		r.blocked += time.Since(t0)
	}
	r.inflight += len(it.p.rows)
	r.st.peakRows = max(r.st.peakRows, r.inflight)
	r.tail.next, r.tail = it, it
	r.mu.Unlock()
	r.posted.Broadcast()
}

// next counts a stream off it — the last returns its rows to the window; the
// head, pending 0, never gets there — and waits for the batch after it.
func (r *replayer) next(it *replayItem) *replayItem {
	r.mu.Lock()
	defer r.mu.Unlock()
	if it.pending--; it.pending == 0 {
		r.inflight -= len(it.p.rows)
		r.freed.Signal()
	}
	for it.next == nil {
		r.posted.Wait()
	}
	return it.next
}

// stream is shard s's side of the replay: its share of every batch after head
// below the lowest failure, in log order. A batch past a failure is only
// counted off, so the window keeps opening until the reader has noticed. When
// the list ends, the stream links what its batches appended.
func (r *replayer) stream(s int, head *replayItem, done *sync.WaitGroup) {
	defer done.Done()
	m, sh := r.m, r.m.shards[s]
	var out []AddResult // what apply reports per row; replay has no one to tell
	for it := r.next(head); len(it.p.rows) > 0; it = r.next(it) {
		if it.seq < r.failSeq.Load() {
			t0 := time.Now()
			if row, err := m.checkShard(s, it.logged, it.p.vecs); err != nil {
				r.fail(it.seq, row, fmt.Errorf("apply logged batch %d: %w", it.seq, err))
			} else if len(it.p.perShard[s]) > 0 {
				out = slices.Grow(out[:0], len(it.p.rows))[:len(it.p.rows)]
				sh.apply(s, it.p, it.baseID, out)
				r.st.skipped[s] += int64(sh.maybeCompact())
			}
			r.st.shardBusy[s] += time.Since(t0)
		}
	}
	// The shards are published next (unless a stream refused), and a view
	// needs the whole graph.
	t0 := time.Now()
	sh.index.Link()
	r.st.shardBusy[s] += time.Since(t0)
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
