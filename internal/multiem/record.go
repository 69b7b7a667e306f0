package multiem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/wal"
)

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

// walAppendBatch logs one ingest batch — its rows and the decisions p holds
// for them — as one record, fsynced in place under the "always" policy. Called
// from AddRecords under addMu, after decide and before chain (which overwrites
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
