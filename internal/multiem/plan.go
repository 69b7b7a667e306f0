package multiem

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/vector"
)

// addDecision is where one row of a batch goes and at what distance: decide
// settles it against the pre-batch tuples, chain against the tuples the batch
// itself is forming.
type addDecision struct {
	absorb bool // join an existing (pre-batch) tuple
	shard  int  // owning shard of the destination tuple
	local  int  // local tuple index when absorbing into an existing tuple
	dist   float32
	batch  int // index into the plan's new tuples when not absorbing
}

// batchTuple is a tuple created by the current batch: the rows that chained
// into it (ascending). chain keeps its running centroid, used only for
// intra-batch join decisions — the authoritative centroid is recomputed from
// the member rows at apply time.
type batchTuple struct {
	rows    []int
	maxJoin float32
	shard   int
	// ord is the tuple's position among the batch's new tuples on its shard,
	// in creation order: apply gives it local index (tuples before the
	// batch) + ord.
	ord int
}

// batchPlan is everything a batch settles before any state changes. It has
// two sources — decide on the primary, which searches, and planFromRecord for
// recovery and followers, which takes the decisions a log record holds — and
// both fill values, vecs and the pre-batch half of rows; chain finishes rows
// and adds tuples and perShard; apply only reads it.
type batchPlan struct {
	// values are the batch's raw rows, kept for the log record.
	values [][]string
	// vecs holds the row embeddings, row i's at vecs.At(i).
	vecs *vector.Store
	rows []addDecision
	// tuples are the tuples the batch creates, in creation order (ascending
	// first row).
	tuples []batchTuple
	// perShard lists each destination shard's rows, ascending.
	perShard [][]int
}

// decide embeds the batch and settles every row against the pre-batch state:
// a row within the merge threshold M of its globally nearest tuple is marked
// for absorption into it. Rows are independent: one worker per shard claims
// rows until none is left (rows differ in cost, and on a busy box so do the
// workers; a 16-row batch is claimed row by row). No shard locks are needed:
// addMu keeps every writer out, and concurrent Match calls only read.
func (m *Matcher) decide(rows [][]string) *batchPlan {
	p := &batchPlan{values: rows, vecs: vector.NewStoreWithCap(m.dim, len(rows)), rows: make([]addDecision, len(rows))}
	p.vecs.Grow(len(rows))
	ef := m.shardEf()
	// One candidate set and one ranking per worker, reused for all its rows
	// and every shard they search, each allocated apart so that no two
	// workers rewrite one cache line.
	workers := par.Workers(len(rows), len(m.shards))
	hits, tops := make([]*shardHits, workers), make([]*vector.TopK, workers)
	for w := range workers {
		hits[w], tops[w] = new(shardHits), vector.NewTopK(1)
	}
	par.For(len(rows), workers, func(w, i int) {
		p.vecs.SetRow(i, m.embed(rows[i]))
		m.decideRow(&p.rows[i], p.vecs.At(i), ef, hits[w], tops[w])
	})
	return p
}

// decideRow finds the pre-batch tuple nearest to q across all shards and
// marks the row for absorption when it is within M. Rows with no text (zero
// embedding) search nothing.
func (m *Matcher) decideRow(d *addDecision, q []float32, ef int, hits *shardHits, top *vector.TopK) {
	if vector.Norm(q) == 0 {
		return
	}
	top.Reset(1)
	for s, sh := range m.shards {
		searchShard(&sh.shardView, addSearchK, ef, q, hits)
		for j, key := range hits.keys {
			// Equidistant tuples tie-break on their smallest member entity
			// ID — the order Match ranks by, and an identity no shard layout
			// changes, so every layout picks the same winner. (Global tuple
			// IDs would not do: they encode the layout.)
			if top.Push(key, hits.dists[j]) {
				d.shard, d.local = s, hits.locals[j]
			}
		}
	}
	if top.Len() > 0 && top.Worst() <= m.mergeM {
		d.absorb, d.dist = true, top.Worst()
	}
}

// ErrLogMismatch reports a logged batch that does not fit the state it is
// being replayed over: the log was written by a matcher with another shard
// count, or over another base state or snapshot. Nothing of the replay is
// published: recovery returns no matcher, a follower resyncs.
var ErrLogMismatch = errors.New("multiem: logged batch does not fit this matcher state " +
	"(replay a log over the base state or snapshot it was written over, with the same shard count)")

// distTolerance is how far a logged absorption distance may lie from the one
// recomputed at replay. On amd64 both kernel paths recompute the logged bits
// (TestReplayAcrossKernels); the slack is for a log that moves to an arm64
// host, whose kernel bits no test checks. A different target centroid
// differs in the first digit.
const distTolerance = 1e-5

// planFromRecord is the plan's second source: the rows of a log record,
// embedded, under the decisions the record holds for them — what decide
// settled when the batch was acknowledged. It searches nothing and reads no
// shard state, so recovery's reader runs it while the shard streams are still
// applying earlier batches. Because replay trusts the log for where a row
// goes, the log must belong to this state; what can be told without the state
// is checked here — the record's shard count is the matcher's, the rows fit
// the schema, every absorption names a shard the matcher has — and the rest
// is checkShard's, shard by shard. Anything else is ErrLogMismatch.
func (m *Matcher) planFromRecord(rec *batchRecord) (*batchPlan, error) {
	if rec.nShards != len(m.shards) {
		return nil, fmt.Errorf("%w: decided by a %d-shard matcher, this one has %d", ErrLogMismatch, rec.nShards, len(m.shards))
	}
	rows := rec.rows
	for i, row := range rows {
		if err := m.checkArity(row, i); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrLogMismatch, err)
		}
		if d := &rec.decisions[i]; d.absorb && d.shard >= len(m.shards) {
			return nil, fmt.Errorf("%w: row %d: absorbed into shard %d, which does not exist here", ErrLogMismatch, i, d.shard)
		}
	}
	p := &batchPlan{values: rows, vecs: vector.NewStoreWithCap(m.dim, len(rows)), rows: rec.decisions}
	p.vecs.Grow(len(rows))
	for i, row := range rows {
		p.vecs.SetRow(i, m.embed(row))
	}
	return p, nil
}

// checkShard validates the logged decisions that absorb into shard s against
// that shard's state, which must be the pre-batch one: every such row names a
// tuple that exists, carries text, lies within M and is as far from the
// target's current centroid as the log says. It reads shard s and no other, so
// a replay stream runs it over its own shard just before that shard's share
// of the batch.
// logged[i] is row i's decision as the record holds it (chain overwrites the
// plan's copy for a row it moves to a forming tuple), vecs the plan's
// embeddings. It returns the first offending row with the ErrLogMismatch.
func (m *Matcher) checkShard(s int, logged []addDecision, vecs *vector.Store) (row int, err error) {
	for i := range logged {
		if d := &logged[i]; d.absorb && d.shard == s {
			if err := m.checkDecision(d, vecs.At(i)); err != nil {
				return i, fmt.Errorf("%w: row %d: %v", ErrLogMismatch, i, err)
			}
		}
	}
	return 0, nil
}

// checkDecision validates one logged absorption for the row embedded as q
// against the pre-batch state of the shard it names.
func (m *Matcher) checkDecision(d *addDecision, q []float32) error {
	if d.local >= m.shards[d.shard].tuples.Len() {
		return fmt.Errorf("absorbed into tuple %d of shard %d, which does not exist here", d.local, d.shard)
	}
	if vector.Norm(q) == 0 {
		return errors.New("a row without text is logged as absorbed")
	}
	if !(d.dist <= m.mergeM) { // NaN included
		return fmt.Errorf("logged distance %v is not within M = %v", d.dist, m.mergeM)
	}
	if got := vector.CosineUnitDist(q, m.shards[d.shard].centroidAt(d.local)); math.Abs(float64(got-d.dist)) > distTolerance {
		return fmt.Errorf("logged at distance %v from tuple %d of shard %d, which is at %v here", d.dist, d.local, d.shard, got)
	}
	return nil
}

// chain settles the rows against the tuples the batch itself is forming, in
// row order, and completes the plan: the new tuples, every row's destination
// shard, the rows partitioned by it. A row joins a forming tuple when it is
// within M and strictly closer than its pre-batch target (ties prefer the
// established tuple); any other row not absorbed starts a tuple on the shard
// its embedding routes to. Rows with no text (zero embedding) never chain;
// each gets its own singleton. Sequential and layout-independent by design.
func (m *Matcher) chain(p *batchPlan) {
	created := make([]int, len(m.shards)) // new tuples per shard so far
	// Row t is the running centroid of p.tuples[t].
	centroids := vector.NewStore(m.dim)
	dots := make([]float32, len(p.rows))
	for i := range p.rows {
		d, vec := &p.rows[i], p.vecs.At(i)
		if vector.Norm(vec) > 0 {
			best := -1
			var bestDist float32
			vector.DotBatch(vec, centroids.Raw(), m.dim, dots[:len(p.tuples)])
			for t, dot := range dots[:len(p.tuples)] {
				if dd := 1 - dot; best < 0 || dd < bestDist { // vector.CosineUnitDist
					best, bestDist = t, dd
				}
			}
			if best >= 0 && bestDist <= m.mergeM && (!d.absorb || bestDist < d.dist) {
				bt := &p.tuples[best]
				bt.rows = append(bt.rows, i)
				centroidInto(centroids.At(best), bt.rows, p.vecs)
				bt.maxJoin = max(bt.maxJoin, bestDist)
				*d = addDecision{batch: best, dist: bestDist}
				continue
			}
		}
		if d.absorb {
			continue
		}
		home := routeVec(vec, len(m.shards))
		d.batch = len(p.tuples)
		p.tuples = append(p.tuples, batchTuple{rows: []int{i}, shard: home, ord: created[home]})
		centroids.Append(vec)
		created[home]++
	}
	p.perShard = make([][]int, len(m.shards))
	for i := range p.rows {
		d := &p.rows[i]
		if !d.absorb {
			d.shard = p.tuples[d.batch].shard
		}
		p.perShard[d.shard] = append(p.perShard[d.shard], i)
	}
}

// apply carries out a settled plan: it hands the batch its entity IDs —
// fresh and dense in row order — and runs every destination shard's share
// concurrently (shard.apply), compacting a shard whose stale index entries
// piled up, then links what the shard appended: publish takes its view next,
// and the next batch's decide searches it.
func (m *Matcher) apply(p *batchPlan) []AddResult {
	baseID := m.nextID
	m.nextID += len(p.rows)
	out := make([]AddResult, len(p.rows))
	par.For(len(m.shards), len(m.shards), func(_, s int) {
		if len(p.perShard[s]) > 0 {
			sh := m.shards[s]
			sh.apply(s, p, baseID, out)
			sh.maybeCompact()
			sh.index.Link()
		}
	})
	return out
}
