package multiem

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hnsw"
	"repro/internal/par"
	"repro/internal/table"
	"repro/internal/vector"
)

// Candidate is one online-match result: a tuple the query record likely
// belongs to, ranked by distance between the query embedding and the tuple's
// centroid.
type Candidate struct {
	// Tuple is the stable global tuple ID, shard<<32 | local index. It never
	// changes for a tuple's lifetime and grows under AddRecords. With a
	// single shard this is the plain tuple index.
	Tuple int `json:"tuple"`
	// EntityIDs are the member entity IDs, sorted ascending.
	EntityIDs []int `json:"entity_ids"`
	// Distance is the cosine distance (vector.CosineUnitDist) from the query
	// to the tuple centroid.
	Distance float32 `json:"distance"`
	// Similarity is 1 - Distance, the cosine similarity.
	Similarity float32 `json:"similarity"`
	// Confidence is the tuple's merge-path confidence in [0, 1].
	Confidence float64 `json:"confidence"`
}

// AddResult reports what AddRecords did with one record.
type AddResult struct {
	// EntityID is the ID assigned to the new record.
	EntityID int `json:"entity_id"`
	// Tuple is the global tuple ID the record now belongs to.
	Tuple int `json:"tuple"`
	// Absorbed is true when the record joined an existing tuple; false when
	// it started a new singleton.
	Absorbed bool `json:"absorbed"`
	// Distance is the distance to the absorbing tuple's centroid (0 when a
	// singleton was created).
	Distance float32 `json:"distance"`
}

// MatcherStats summarizes a Matcher's state across all shards.
type MatcherStats struct {
	// Entities is the total number of records known to the matcher.
	Entities int `json:"entities"`
	// Tuples is the number of tracked tuples, singletons included.
	Tuples int `json:"tuples"`
	// Matched is the number of tuples with >= 2 members (Definition 2).
	Matched int `json:"matched"`
	// Singletons is the number of single-member tuples.
	Singletons int `json:"singletons"`
	// Dim is the embedding dimensionality.
	Dim int `json:"dim"`
	// Shards is the number of hash shards the state is split across.
	Shards int `json:"shards"`
	// IndexSize is the total number of centroid vectors across the shards'
	// ANN indexes, stale centroids of absorbed-into tuples included.
	IndexSize int `json:"index_size"`
	// Live is the number of current centroids (one per tuple); the
	// difference IndexSize - Live is stale index weight, bounded per shard
	// by compaction.
	Live int `json:"live"`
	// Attrs are the attribute names used for representation.
	Attrs []string `json:"attrs"`
}

// ArityError reports a record whose width does not match the schema.
// Callers (the HTTP layer) use it to map bad input to a client error and to
// point at the offending row of a batch.
type ArityError struct {
	// Row is the index of the bad row within the submitted batch, or -1 for
	// a single-record operation like Match.
	Row int
	// Got and Want are the record's and the schema's widths.
	Got, Want int
	// Schema is the expected attribute list.
	Schema []string
}

// Error formats the mismatch with the expected schema and, for batch
// operations, the offending row index.
func (e *ArityError) Error() string {
	msg := fmt.Sprintf("record has %d values, schema %v wants %d", e.Got, e.Schema, e.Want)
	if e.Row >= 0 {
		return fmt.Sprintf("multiem: row %d: %s", e.Row, msg)
	}
	return "multiem: " + msg
}

// tupleState is one tracked tuple: its member entity rows (local to the
// owning shard) and merge-path provenance. The tuple's unit-norm centroid is
// the vector of node `node` in the shard's HNSW index.
type tupleState struct {
	members     []int
	maxJoinDist float32
	// minEntID caches the smallest member entity ID — the tuple's
	// layout-independent identity for deterministic tie-breaks. Fixed at
	// creation: later members always carry fresh, larger IDs. Derived
	// state, recomputed on load rather than persisted.
	minEntID int
	// node is the internal HNSW node (hnsw.Index.Vector's numbering) of the
	// tuple's current index entry, whose vector is the tuple's centroid. A
	// centroid refresh indexes a new node under the same tuple id instead of
	// overwriting (published views may still be reading the old one) and
	// moves this pointer; compaction rebuilds the index dense, node = local
	// index. Derived state, like minEntID: on load it is the last index node
	// carrying the tuple's id.
	node int32
}

// Matcher serves online entity matching over a completed pipeline run. Its
// state is hash-sharded: each shard owns a disjoint set of tuples together
// with their member embeddings and the HNSW index that stores their centroids.
// Tuples are addressed by stable global IDs (shard<<32 | local index).
//
// Match answers "which tuple does this record belong to" without re-running
// the pipeline: the query is embedded once, fanned out across the shards'
// indexes, and the per-shard top-k are merged. Every score is
// vector.CosineUnitDist, the one distance merging also uses.
// AddRecords ingests a batch incrementally: rows are embedded and searched in
// parallel against a snapshot of all shards, then partitioned by destination
// shard and applied concurrently — absorbed into the globally nearest tuple
// when its centroid distance is within the merge threshold M, or started as
// a new singleton on the shard the routing hash names.
//
// Concurrency: the matcher serves reads through an epoch-stamped,
// copy-on-write view. Every batch ends with one atomic swap that installs
// the new views of all shards it touched and bumps the epoch; Match, Stats
// and Tuples pin the view once and read it lock-free, so they never block on
// ingest (or each other) and always observe every batch all-or-nothing
// across shards — never a half-applied batch. AddRecords is
// serialized on an ingest lock; Save and Snapshot serialize from a pinned
// view, off that lock, so checkpoint duration does not stall ingest. The
// configured Encoder must be safe for concurrent use (the default
// HashEncoder is).
type Matcher struct {
	// addMu serializes the matcher's only mutator, AddRecords (and the WAL
	// replay path); holding it means no writer-side shard state changes
	// underneath.
	addMu sync.Mutex
	// state is the published serving view: the current epoch, the next
	// entity ID, and one immutable shardView per shard. Writers replace it
	// wholesale (one pointer swap per batch); readers Load it once and hold
	// a cross-shard-consistent snapshot for as long as they like.
	state atomic.Pointer[matcherView]
	opt   Options
	dim   int
	// schema is the attribute list incoming records must follow.
	schema []string
	// selected are the schema positions used for serialization; nil means
	// all attributes (the pipeline's fast path).
	selected []int
	shards   []*shard
	// nextID is the next entity ID to hand out; guarded by addMu.
	nextID int
	result *Result // pipeline output; nil when loaded from disk
	// loadBytes and loadTime are what LoadMatcher read to produce this
	// matcher and how long reading and decoding took; zero for a built one.
	// Recovery reports them beside its replay (WALStats).
	loadBytes int64
	loadTime  time.Duration
	// replayed sums every replay this matcher ran — recovery's, or a
	// follower's rounds; nil before the first. Stored under addMu.
	replayed atomic.Pointer[replayStats]
	// wal is the attached durability state (batch log + snapshotter),
	// or nil when the matcher runs in-memory only. Set by RecoverMatcher
	// before the matcher is shared, or by Replicator.Promote under addMu.
	wal *walState
	// readOnly fences AddRecords while the matcher is a replication
	// follower: reads serve normally, writes fail with ErrReadOnly until
	// promotion clears the fence.
	readOnly atomic.Bool
	// obsIns is the lazily-created instrumentation state (see metrics.go);
	// lastPublish is the UnixNano of the latest view publish, feeding the
	// epoch-age metric.
	obsOnce     sync.Once
	obsIns      *matcherObs
	lastPublish atomic.Int64
}

// ErrReadOnly is returned by AddRecords while the matcher is a replication
// follower; the serving layer maps it to 503 + a primary hint.
var ErrReadOnly = errors.New("multiem: matcher is a read-only replica")

// matcherView is one epoch's complete serving state: an immutable shardView
// per shard plus the matcher-level fields a consistent snapshot needs. A
// batch commits by installing a new matcherView with the touched shards'
// fresh views and epoch+1 in one atomic store, which is what makes batch
// visibility all-or-nothing across shards.
type matcherView struct {
	// epoch counts committed batches since this matcher was constructed (it
	// is serving state, not persistent state: a recovered matcher restarts
	// it at the replay count).
	epoch uint64
	// nextID is the next entity ID, frozen at this epoch — Snapshot must
	// persist the nextID that matches the views, not a fresher one.
	nextID int
	shards []*shardView
}

// publishAll installs a fresh view of every shard at the given epoch: at
// construction and load, and at the end of a replay (under addMu).
func (m *Matcher) publishAll(epoch uint64) {
	v := &matcherView{epoch: epoch, nextID: m.nextID, shards: make([]*shardView, len(m.shards))}
	for s, sh := range m.shards {
		v.shards[s] = sh.view()
	}
	m.state.Store(v)
	m.lastPublish.Store(time.Now().UnixNano())
}

// publish makes the batch the caller just applied visible: a fresh view of
// every shard the plan touched (untouched shards keep their current view and
// pay nothing) and epoch+1, installed with one atomic swap — readers see the
// whole batch or none of it. The caller holds addMu.
func (m *Matcher) publish(p *batchPlan) {
	old := m.state.Load()
	v := &matcherView{epoch: old.epoch + 1, nextID: m.nextID, shards: slices.Clone(old.shards)}
	for s, rows := range p.perShard {
		if len(rows) > 0 {
			t0 := time.Now()
			v.shards[s] = m.shards[s].view()
			m.obs().viewBuild.Record(time.Since(t0))
		}
	}
	m.state.Store(v)
	m.lastPublish.Store(time.Now().UnixNano())
}

// Epoch reports the current view epoch: the number of batches committed
// since this matcher instance was constructed. Readers that pin a view see
// every batch up to (and none past) some epoch; two reads returning the same
// epoch observed identical matcher state.
func (m *Matcher) Epoch() uint64 { return m.state.Load().epoch }

// resolveShards maps the Shards option to a concrete shard count.
func resolveShards(opt *Options) int {
	n := opt.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > maxSaneShards {
		n = maxSaneShards
	}
	return n
}

// newShards allocates n empty shards for the matcher's dimensionality.
func (m *Matcher) newShards(n int) {
	shift := m.opt.tupleChunkShift()
	m.shards = make([]*shard, n)
	for s := range m.shards {
		m.shards[s] = &shard{
			shardView: shardView{entVecs: vector.NewStore(m.dim), tuples: tupleTable{shift: shift}},
			centroid:  make([]float32, m.dim),
		}
	}
}

// BuildMatcher runs the full MultiEM pipeline on the dataset and wraps the
// outcome in a Matcher. Every predicted tuple becomes a tracked tuple;
// entities the pipeline left unmatched become singletons, so later records
// can still be matched against them. Tuples are distributed across shards by
// the routing hash of their centroid, and the per-shard HNSW indexes are
// built concurrently. The pipeline's Result is available via Result().
func BuildMatcher(d *table.Dataset, opt Options) (*Matcher, error) {
	st, err := run(d, opt)
	if err != nil {
		return nil, err
	}

	m := &Matcher{
		opt:    opt,
		dim:    opt.Encoder.Dim(),
		schema: append([]string(nil), d.Schema().Attrs...),
		result: st.res,
	}
	if len(st.res.SelectedAttrs) < len(m.schema) {
		m.selected = append([]int(nil), st.res.SelectedAttrs...)
	}
	m.newShards(resolveShards(&opt))
	for _, e := range st.ents {
		if e.ID >= m.nextID {
			m.nextID = e.ID + 1
		}
	}

	covered := make([]bool, len(st.ents))
	for _, pos := range st.posTuples {
		for _, p := range pos {
			covered[p] = true
		}
	}

	// Distribute pipeline tuples, then leftover singletons, routing each by
	// its centroid. Member positions are rewritten to rows local to the
	// owning shard, and each member's embedding and ID move there with it.
	centroid := make([]float32, m.dim)
	place := func(members []int, maxJoinDist float32) {
		centroidInto(centroid, members, st.entVecs)
		sh := m.shards[routeVec(centroid, len(m.shards))]
		local := make([]int, len(members))
		for i, p := range members {
			local[i] = sh.entVecs.Append(st.entVecs.At(p))
			sh.entIDs = append(sh.entIDs, st.ents[p].ID)
		}
		sh.tuples.append(tupleState{
			members:     local,
			maxJoinDist: maxJoinDist,
			minEntID:    minMemberID(local, sh.entIDs),
		})
	}
	for ti, pos := range st.posTuples {
		place(pos, 2*float32(1-st.res.Confidences[ti]))
	}
	for p := range covered {
		if !covered[p] {
			place([]int{p}, 0)
		}
	}

	// Per-shard index builds are independent; run them concurrently.
	par.For(len(m.shards), len(m.shards), func(_, s int) { m.buildShardIndex(s) })
	m.publishAll(0)
	return m, nil
}

// buildShardIndex constructs shard s's centroid HNSW index from its tuples,
// in local order, so tuple l starts out at node l, and links it for the
// first view. Each centroid is derived again from the member rows the shard
// now owns — the same vectors in the same order as the routing centroid,
// hence the same bits.
func (m *Matcher) buildShardIndex(s int) {
	sh := m.shards[s]
	sh.index = hnsw.New(m.dim, m.shardHNSWConfig(s))
	for local := 0; local < sh.tuples.len(); local++ {
		sh.indexCentroid(local)
	}
	sh.index.Link()
}

// centroidInto writes the unit-norm mean embedding of the member positions
// into dst. Both the merging phase and the online matcher derive tuple
// centroids through it, so the two can never diverge.
func centroidInto(dst []float32, members []int, entVecs *vector.Store) {
	if len(members) == 1 {
		copy(dst, entVecs.At(members[0]))
		return
	}
	for i := range dst {
		dst[i] = 0
	}
	for _, pos := range members {
		vector.Add(dst, entVecs.At(pos))
	}
	vector.Scale(dst, 1/float32(len(members)))
	vector.Normalize(dst)
}

// Result returns the pipeline output the matcher was built from, or nil for
// a matcher loaded from disk.
func (m *Matcher) Result() *Result { return m.result }

// Schema returns the attribute names incoming records must be ordered by.
func (m *Matcher) Schema() []string {
	return append([]string(nil), m.schema...)
}

// Shards reports how many hash shards the matcher's state is split across.
func (m *Matcher) Shards() int { return len(m.shards) }

// embed serializes a record's values over the selected attributes and encodes
// them, mirroring the pipeline's representation phase.
func (m *Matcher) embed(values []string) []float32 {
	e := &table.Entity{Values: values}
	return m.opt.Encoder.Encode(table.Serialize(e, m.selected))
}

// MaxMatchK caps the per-query candidate count: Match allocates O(k) and the
// index search beam is O(k), so an unbounded k from an untrusted caller (the
// HTTP API) could exhaust memory.
const MaxMatchK = 100

// checkArity rejects records whose width differs from the schema; silently
// padding or truncating would embed the wrong text and poison centroids.
// row is the batch row index for the error (-1 outside a batch).
func (m *Matcher) checkArity(values []string, row int) error {
	if len(values) != len(m.schema) {
		// Copy the schema: the error crosses the public API, and a caller
		// mutating it must not corrupt the matcher.
		return &ArityError{Row: row, Got: len(values), Want: len(m.schema), Schema: append([]string(nil), m.schema...)}
	}
	return nil
}

// shardEf is the per-shard search beam for fan-out queries. Each shard holds
// roughly 1/n of the centroids, so the configured beam (Options.HNSW.EfSearch)
// is split across the shards; the total search effort stays near the
// single-shard cost instead of multiplying by the shard count. The index never
// searches with a beam narrower than the requested k, so small shards keep
// full recall.
func (m *Matcher) shardEf() int {
	ef := m.opt.HNSW.EfSearch
	if ef <= 0 {
		ef = 64 // hnsw's own EfSearch default
	}
	if n := len(m.shards); n > 1 {
		ef = (ef + n - 1) / n
	}
	return ef
}

// shardHits is one shard's contribution to a query: the distinct tuples its
// index returned, each scored against its current centroid. keys are the
// tuples' smallest member entity IDs — unique across all shards (members are
// disjoint) and independent of the shard layout, so they can drive a merged
// ranking's tie-breaks. searchShard reuses the slices, so a caller that keeps
// one shardHits across searches pays for them once.
type shardHits struct {
	keys   []int   // smallest member entity ID per tuple
	locals []int   // local tuple indexes
	nodes  []int32 // the tuples' current index nodes
	dists  []float32
}

// searchShard runs one shard's leg of a query — Match's over a published
// view, decide's over the writer's own state — and is the only place the
// matcher searches an index: fetch entries (callers over-fetch, because
// absorbed-into tuples leave stale centroid entries behind), collapse the
// entries that resolve to one tuple, and re-rank every distinct tuple by cosine
// distance to its current centroid — one gather call over the index's node
// store (the rows the graph walk just read) instead of a kernel call per
// tuple. Nothing here writes shard state, so no lock is involved. Distances
// are as the kernel returns them, unclamped.
func searchShard(v *shardView, fetch, ef int, q []float32, hits *shardHits) {
	raw := v.index.Search(q, fetch, ef)
	hits.keys = slices.Grow(hits.keys[:0], len(raw))
	hits.locals = slices.Grow(hits.locals[:0], len(raw))
	hits.nodes = slices.Grow(hits.nodes[:0], len(raw))
	for _, r := range raw {
		// Stale versions of one tuple all re-rank against the same current
		// centroid, so keep the first and score each tuple once.
		if slices.Contains(hits.locals, r.ID) {
			continue
		}
		ts := v.tuples.at(r.ID)
		hits.keys = append(hits.keys, ts.minEntID)
		hits.locals = append(hits.locals, r.ID)
		hits.nodes = append(hits.nodes, ts.node)
	}
	hits.dists = slices.Grow(hits.dists[:0], len(hits.nodes))[:len(hits.nodes)]
	if len(hits.nodes) > 0 {
		vector.CosineUnitGather(q, v.index.RawVectors(), v.index.Dim(), hits.nodes, hits.dists)
	}
}

// Match returns up to k candidate tuples for a record, nearest centroid
// first. values must be ordered by Schema() and match its length; k is
// clamped to [1, MaxMatchK]. Records with no meaningful text (empty
// embedding) return no candidates.
//
// The whole query runs against one pinned epoch view — no locks, and a
// cross-shard-consistent result even while batches commit concurrently (a
// candidate's distance, membership, and confidence all come from the same
// epoch). Ties in distance break on the tuple's smallest member entity ID,
// so the ranking — including the cut at k — is identical for every shard
// layout.
func (m *Matcher) Match(values []string, k int) ([]Candidate, error) {
	if err := m.checkArity(values, -1); err != nil {
		return nil, err
	}
	if k <= 0 {
		k = 1
	}
	if k > MaxMatchK {
		k = MaxMatchK
	}
	sp := m.obs().match.Start()
	q := m.embed(values)
	sp.Mark(MatchStageEmbed)
	if vector.Norm(q) == 0 {
		// Abandoned span: a no-text query runs no search, so recording an
		// all-zero breakdown would only skew the stage histograms.
		return nil, nil
	}

	fetch := 4*k + 8
	ef := m.shardEf()
	v := m.state.Load()
	perShard := make([]shardHits, len(v.shards))
	par.For(len(v.shards), len(v.shards), func(_, s int) {
		searchShard(v.shards[s], fetch, ef, q, &perShard[s])
	})
	sp.Mark(MatchStageFanout)

	// Merge the per-shard rankings keyed on the layout-independent tuple
	// keys: TopK displaces lexicographically on (distance, key), so the cut
	// at k is deterministic regardless of shard layout. Global tuple IDs
	// would not do as tie-breaks — they encode the layout.
	top := vector.NewTopK(k)
	byKey := make(map[int]int, len(v.shards)*4)
	for s := range perShard {
		h := &perShard[s]
		for i, key := range h.keys {
			// Clamp: float rounding can push an exact self-match a hair
			// below zero.
			top.Push(key, max(0, h.dists[i]))
			byKey[key] = globalTupleID(s, h.locals[i])
		}
	}
	merged := top.Results()

	// Materialize the survivors from the same pinned view.
	out := make([]Candidate, len(merged))
	for i, r := range merged {
		gid := byKey[r.ID]
		s, local := splitTupleID(gid)
		ts := v.shards[s].tuples.at(local)
		out[i] = Candidate{
			Tuple:      gid,
			Distance:   r.Dist,
			Similarity: 1 - r.Dist,
			EntityIDs:  v.shards[s].memberIDs(ts.members),
			Confidence: confidenceFrom(ts.maxJoinDist),
		}
	}
	sp.Mark(MatchStageMerge)
	sp.End()
	return out, nil
}

// confidenceFrom maps a tuple's worst accepted join distance into [0, 1],
// lower the nearer a join came to M. It is the one confidence rule:
// Result.Confidences (pruneItems), Match and TupleCursor all read it.
func confidenceFrom(maxJoinDist float32) float64 {
	c := 1 - float64(maxJoinDist)/2
	if c < 0 {
		c = 0
	}
	return c
}

// addSearchK is the per-shard candidate width when AddRecords looks for the
// nearest tuple to absorb into.
const addSearchK = 8

// AddRecords ingests a batch of records incrementally. Rows are validated
// against the schema up front (a bad row rejects the whole batch), then:
//
//  1. Every row is embedded and searched against a snapshot of all shards in
//     parallel. A row within the merge threshold M of its globally nearest
//     pre-batch tuple is marked for absorption into it.
//  2. The remaining rows are chained against each other in row order: a row
//     within M of a tuple the batch itself is forming joins it (so a bulk
//     load full of mutual duplicates forms one tuple, not a pile of
//     singletons), and any other row starts a new tuple on the shard the
//     routing hash of its embedding names.
//  3. The batch is partitioned by destination shard and applied
//     concurrently, each shard's slice in row order against the writer-side
//     state: members appended, each created or touched tuple's centroid
//     computed once and indexed as a fresh node, and the shard compacted if
//     stale index entries piled up. The batch commits with one atomic
//     view swap, so concurrent readers see it all-or-nothing across shards.
//
// Decisions against pre-existing tuples use the state at the start of the
// batch, and the chaining pass is independent of the shard layout — so
// tuple membership comes out identical for every shard count, which is what
// makes sharded ingest deterministic. A row strictly closer to a tuple the
// batch is forming than to its pre-batch target joins the batch tuple; the
// one divergence from one-row-at-a-time ingestion is that a row never joins
// a pre-batch tuple via a centroid moved by an earlier row of the same
// batch. Ingest parallelism scales with the shard count — a single-shard
// matcher ingests serially; the default Options.Shards = GOMAXPROCS uses
// every core.
//
// Assigned entity IDs are fresh and dense in row order. AddRecords returns
// the results or an error, never both: on an error no row of the batch was
// applied (though a failed log append may still have made it durable; see
// walAppendBatch).
//
// With a WAL attached (RecoverMatcher), the batch's rows and the decisions of
// step 1 are appended to the log as one record, before any shard state
// changes, so a batch is either fully logged or not applied at all — and
// recovery and followers redo it from those decisions instead of searching
// again. Under the "always" fsync policy the log is also fsynced before the
// apply, so an acknowledged batch survives power loss.
func (m *Matcher) AddRecords(rows [][]string) ([]AddResult, error) {
	if m.readOnly.Load() {
		return nil, ErrReadOnly
	}
	for i, values := range rows {
		if err := m.checkArity(values, i); err != nil {
			return nil, err
		}
	}
	// An empty batch commits nothing: it has nothing to make durable, and a
	// record with no rows is one the decoder refuses.
	if len(rows) == 0 {
		return nil, nil
	}
	m.addMu.Lock()
	defer m.addMu.Unlock()
	sp := m.obs().ingest.Start()
	p := m.decide(rows)
	sp.Mark(IngestStageDecide)
	// Write-ahead: the batch goes to the log (and, under fsync "always", to
	// stable storage) before any shard state changes — and before chain,
	// because the record holds the decisions as decide left them. A failed
	// append rejects the batch with the state untouched.
	if m.wal != nil {
		if err := m.walAppendBatch(p); err != nil {
			return nil, err
		}
	}
	sp.Mark(IngestStageWAL)
	m.chain(p)
	sp.Mark(IngestStageChain)
	out := m.apply(p)
	sp.Mark(IngestStageApply)
	m.publish(p)
	sp.Mark(IngestStagePublish)
	sp.End()
	ins := m.obs()
	ins.batches.Add(1)
	ins.rows.Add(int64(len(p.rows)))
	return out, nil
}

// minMemberID scans members for the smallest entity ID; used to seed a
// tuple's cached minEntID at creation and load time.
func minMemberID(members []int, entIDs []int) int {
	min := -1
	for _, p := range members {
		if id := entIDs[p]; min < 0 || id < min {
			min = id
		}
	}
	return min
}

// Stats reports the matcher's current size, aggregated over shards.
func (m *Matcher) Stats() MatcherStats {
	s, _, _ := m.StatsWithShards()
	return s
}

// StatsWithShards reports the aggregate stats, the per-shard breakdown, and
// the epoch they describe, all from one pinned view: the totals always equal
// the per-shard sums, every committed batch is counted on all its shards or
// none, and nothing blocks — not even a checkpoint in flight. The returned
// epoch is the one the numbers belong to (reading Epoch separately could
// straddle a commit), so two calls reporting the same epoch reported
// identical stats.
func (m *Matcher) StatsWithShards() (MatcherStats, []ShardStats, uint64) {
	v := m.state.Load()
	s := MatcherStats{
		Dim:    m.dim,
		Shards: len(v.shards),
	}
	if m.selected == nil {
		s.Attrs = append([]string(nil), m.schema...)
	} else {
		for _, j := range m.selected {
			s.Attrs = append(s.Attrs, m.schema[j])
		}
	}
	per := make([]ShardStats, len(v.shards))
	for id, sv := range v.shards {
		per[id] = sv.stats(id)
		s.Entities += per[id].Entities
		s.Tuples += per[id].Tuples
		s.Matched += per[id].Matched
		s.Singletons += per[id].Singletons
		s.IndexSize += per[id].IndexSize
		s.Live += per[id].Live
	}
	return s, per, v.epoch
}

// Tuples returns every tracked tuple with >= 2 members as sorted entity-ID
// sets with confidences, in global tuple-ID order (shard, then local index).
// Like every read, it materializes from one pinned epoch view: lock-free and
// all-or-nothing with respect to concurrent batches.
func (m *Matcher) Tuples() ([][]int, []float64) {
	var tuples [][]int
	var confs []float64
	for c := m.TupleCursor(2); c.Next(); {
		tuples = append(tuples, c.Members())
		confs = append(confs, c.Confidence())
	}
	return tuples, confs
}
