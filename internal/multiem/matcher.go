package multiem

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hnsw"
	"repro/internal/obs"
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
	// Distance is the merge-metric distance from the query to the tuple
	// centroid.
	Distance float32 `json:"distance"`
	// Similarity is 1 - Distance (cosine similarity for the default metric).
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
// the pipeline: the query is embedded once, bound to the merge metric, fanned
// out across the shards' indexes, and the per-shard top-k are merged.
// AddRecords ingests a batch incrementally: rows are embedded and searched in
// parallel against a snapshot of all shards, then partitioned by destination
// shard and applied concurrently — absorbed into the globally nearest tuple
// when its centroid distance is within the merge threshold M, or started as
// a new singleton on the shard the routing hash names.
//
// Concurrency: the matcher serves reads through an epoch-stamped,
// copy-on-write view. Every batch ends with one atomic swap that installs
// the new views of all shards it touched and bumps the epoch; Match, Stats,
// ShardStats, and Tuples pin the view once and read it lock-free, so they
// never block on ingest (or each other) and always observe every batch
// all-or-nothing across shards — never a half-applied batch. AddRecords is
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
	// dist is opt.MergeMetric resolved once; AddRecords re-ranks candidates
	// with it on every query.
	dist vector.DistFunc
	dim  int
	// schema is the attribute list incoming records must follow.
	schema []string
	// selected are the schema positions used for serialization; nil means
	// all attributes (the pipeline's fast path).
	selected []int
	shards   []*shard
	// nextID is the next entity ID to hand out; guarded by addMu.
	nextID int
	result *Result // pipeline output; nil when loaded from disk
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

// publishAll installs a fresh view of every shard at the given epoch; used
// at construction and load time, before the matcher is shared.
func (m *Matcher) publishAll(epoch uint64) {
	v := &matcherView{epoch: epoch, nextID: m.nextID, shards: make([]*shardView, len(m.shards))}
	for s, sh := range m.shards {
		v.shards[s] = sh.view()
	}
	m.state.Store(v)
	m.lastPublish.Store(time.Now().UnixNano())
}

// commit publishes the batch the caller just applied: shards[s] == nil keeps
// shard s's current view (untouched shards pay nothing), non-nil entries are
// installed, and the epoch advances by one. The caller holds addMu.
func (m *Matcher) commit(views []*shardView) {
	old := m.state.Load()
	v := &matcherView{epoch: old.epoch + 1, nextID: m.nextID, shards: make([]*shardView, len(old.shards))}
	copy(v.shards, old.shards)
	for s, sv := range views {
		if sv != nil {
			v.shards[s] = sv
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
			entVecs:  vector.NewStore(m.dim),
			tuples:   newTupleTable(shift),
			centroid: make([]float32, m.dim),
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
		dist:   opt.MergeMetric.Func(),
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
	errs := make([]error, len(m.shards))
	parallelFor(len(m.shards), len(m.shards), func(s int) {
		errs[s] = m.buildShardIndex(s)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	m.publishAll(0)
	return m, nil
}

// buildShardIndex constructs shard s's centroid HNSW index from its tuples,
// in local order, so tuple l starts out at node l. Each centroid is derived
// again from the member rows the shard now owns — the same vectors in the
// same order as the routing centroid, hence the same bits.
func (m *Matcher) buildShardIndex(s int) error {
	sh := m.shards[s]
	sh.index = hnsw.New(m.dim, m.shardHNSWConfig(s))
	for local := 0; local < sh.tuples.len(); local++ {
		if err := sh.indexCentroid(local); err != nil {
			return fmt.Errorf("multiem: matcher index (shard %d): %w", s, err)
		}
	}
	return nil
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
// roughly 1/n of the centroids, so the configured beam is split across the
// shards; the total search effort stays near the single-shard cost instead
// of multiplying by the shard count. The index never searches with a beam
// narrower than the requested k, so small shards keep full recall.
func (m *Matcher) shardEf() int {
	ef := m.opt.EfSearch
	if ef <= 0 {
		ef = m.opt.HNSW.EfSearch
	}
	if ef <= 0 {
		ef = 64 // hnsw's own EfSearch default
	}
	if n := len(m.shards); n > 1 {
		ef = (ef + n - 1) / n
	}
	return ef
}

// shardHits is one shard's contribution to a fan-out query: distinct tuples
// re-ranked against their current centroids. keys are the tuples' smallest
// member entity IDs — unique across all shards (members are disjoint) and
// independent of the shard layout, so they can drive the merged ranking's
// tie-breaks.
type shardHits struct {
	keys  []int // smallest member entity ID per tuple
	ids   []int // global tuple IDs
	dists []float32
}

// searchShard runs one shard's leg of a fan-out query: over-fetch from the
// view's index, collapse stale duplicates, and re-rank every distinct tuple
// against its epoch-current centroid with the query-bound batch kernel qb —
// one gather call over the index's node store (the rows the graph walk just
// read) instead of a kernel call per tuple. The view is immutable, so no lock
// is involved.
func searchShard(v *shardView, s, fetch, ef int, q []float32, qb vector.QueryBatch, hits *shardHits) {
	// Over-fetch: absorbed-into tuples leave stale centroid entries in the
	// index, and several entries can resolve to one tuple.
	raw := v.index.Search(q, fetch, ef)
	if len(raw) == 0 {
		return
	}
	seen := make(map[int]bool, len(raw))
	nodes := make([]int32, 0, len(raw))
	for _, r := range raw {
		if seen[r.ID] {
			continue
		}
		seen[r.ID] = true
		ts := v.tuples.at(r.ID)
		nodes = append(nodes, ts.node)
		hits.keys = append(hits.keys, ts.minEntID)
		hits.ids = append(hits.ids, globalTupleID(s, r.ID))
	}
	// Distances against the current centroids, not the possibly stale
	// indexed vectors. Clamp: float rounding can push an exact self-match a
	// hair below zero.
	hits.dists = make([]float32, len(nodes))
	qb(v.index.RawVectors(), v.index.Dim(), nodes, hits.dists)
	for i, d := range hits.dists {
		if d < 0 {
			hits.dists[i] = 0
		}
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

	// Bind the metric to the query once; every shard's re-rank shares the
	// kernel (for cosine, ||q|| is hoisted out of all candidate loops).
	qb := m.opt.MergeMetric.QueryBatchFunc(q)
	fetch := 4*k + 8
	ef := m.shardEf()
	v := m.state.Load()
	perShard := make([]shardHits, len(v.shards))
	parallelFor(len(v.shards), len(v.shards), func(s int) {
		searchShard(v.shards[s], s, fetch, ef, q, qb, &perShard[s])
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
			top.Push(key, h.dists[i])
			byKey[key] = h.ids[i]
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

// confidenceFrom maps a tuple's worst accepted join distance into (0, 1],
// matching the pipeline's merge-path confidence.
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

// decideScratch is one decide worker's candidate set for one shard: the
// distinct tuples a search returned, their current index nodes, and the
// re-rank distances. A search returns at most addSearchK hits, so the arrays
// never grow; the pool hands each worker goroutine its own.
type decideScratch struct {
	locals [addSearchK]int
	nodes  [addSearchK]int32
	dists  [addSearchK]float32
}

var decidePool = sync.Pool{New: func() any { return new(decideScratch) }}

// addDecision is the outcome of one record's snapshot search and intra-batch
// chaining: where it goes and at what distance.
type addDecision struct {
	vec    []float32
	absorb bool // join an existing (pre-batch) tuple
	shard  int  // owning shard of the destination tuple
	local  int  // local tuple index when absorbing into an existing tuple
	dist   float32
	batch  int // index into the batch's new tuples when not absorbing
}

// batchTuple is a tuple created by the current batch: the rows that chained
// into it (ascending) and its running centroid, used only for intra-batch
// join decisions — the authoritative centroid is recomputed from the member
// rows at apply time.
type batchTuple struct {
	rows     []int
	centroid []float32
	maxJoin  float32
	shard    int
}

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
// batch. Ingest parallelism scales with the
// shard count — a single-shard matcher ingests serially; the default
// Options.Shards = GOMAXPROCS uses every core.
//
// Assigned entity IDs are fresh and dense in row order. On a compaction
// failure the records are still ingested (the shard keeps serving from its
// previous index) and the error is returned alongside the results.
//
// With a WAL attached (RecoverMatcher), the batch's raw rows are appended to
// the log as one record, after the decisions are made and before any shard
// state changes, so a batch is either fully logged or not applied at all.
// Under the "always" fsync policy the log is also fsynced before the apply,
// so an acknowledged batch survives power loss.
func (m *Matcher) AddRecords(rows [][]string) ([]AddResult, error) {
	if m.readOnly.Load() {
		return nil, ErrReadOnly
	}
	for i, values := range rows {
		if err := m.checkArity(values, i); err != nil {
			return nil, err
		}
	}
	m.addMu.Lock()
	defer m.addMu.Unlock()
	return m.addBatchLocked(rows, batchIngest)
}

// batchMode selects which side effects accompany one batch application. The
// decision phases are identical in every mode — that is what keeps a
// recovered or replicated matcher bit-identical to the one that ingested
// the batch originally.
type batchMode int

const (
	// batchIngest is live ingestion: write-ahead log the batch, apply it
	// copy-on-write, and publish the new views.
	batchIngest batchMode = iota
	// batchRecover is startup WAL replay: no logging (the records are being
	// read back), and no per-batch views — no reader exists until
	// RecoverMatcher returns, so building a full copy-on-write view per
	// replayed batch (tuple-table copy + links-arena clone, immediately
	// superseded by the next batch) would make recovery cost
	// O(batches × live state); the replay caller publishes once at the end.
	batchRecover
	// batchReplicate is a follower applying a shipped batch: no logging
	// (the mirrored segments already hold the records), but full
	// copy-on-write and publish — the follower is serving reads the whole
	// time, so every batch must commit atomically under pinned views.
	batchReplicate
)

// addBatchLocked is the batch ingest body: decisions, optional WAL append,
// and the per-shard apply. The caller holds addMu and has validated arity.
func (m *Matcher) addBatchLocked(rows [][]string, mode batchMode) ([]AddResult, error) {
	// An empty batch must return before the WAL append: it has nothing to
	// make durable, and a record with no rows is one the decoder refuses.
	if len(rows) == 0 {
		return nil, nil
	}
	// The span skips recovery replay: replay re-applies history before any
	// reader exists, and its timings would pollute the serving histograms.
	// The zero Span is a no-op, so the stage marks below need no branches.
	var sp obs.Span
	if mode != batchRecover {
		sp = m.obs().ingest.Start()
	}
	// Phase 1: snapshot decisions. No shard locks are needed: addMu keeps
	// every writer out, and concurrent Match calls only read.
	decs := make([]addDecision, len(rows))
	ef := m.shardEf()
	parallelFor(len(m.shards), len(rows), func(i int) {
		d := &decs[i]
		d.vec = m.embed(rows[i])
		if vector.Norm(d.vec) > 0 {
			// Bind the merge metric to the row once; each shard's candidate
			// set is then scored in a single gather call over that shard's
			// index node store.
			qb := m.opt.MergeMetric.QueryBatchFunc(d.vec)
			bestID, bestMin := -1, 0
			var bestDist float32
			sc := decidePool.Get().(*decideScratch)
			defer decidePool.Put(sc)
			for s, sh := range m.shards {
				// Several hits can be stale versions of one tuple; they all
				// re-rank against the same current centroid, so keep the
				// first and score each tuple once.
				n := 0
				for _, r := range sh.index.Search(d.vec, addSearchK, ef) {
					if !slices.Contains(sc.locals[:n], r.ID) {
						sc.locals[n], sc.nodes[n] = r.ID, sh.tuples.at(r.ID).node
						n++
					}
				}
				if n == 0 {
					continue
				}
				ds := sc.dists[:n]
				qb(sh.index.RawVectors(), m.dim, sc.nodes[:n], ds)
				for j, local := range sc.locals[:n] {
					if bestID >= 0 && ds[j] > bestDist {
						continue
					}
					// Equidistant tuples tie-break on their smallest member
					// entity ID — an identity no shard layout changes, so
					// every layout picks the same winner. (Global tuple IDs
					// would not do: they encode the layout.)
					cm := m.tupleMinEntityID(s, local)
					if bestID < 0 || ds[j] < bestDist || cm < bestMin {
						bestID, bestDist, bestMin = globalTupleID(s, local), ds[j], cm
					}
				}
			}
			if bestID >= 0 && bestDist <= m.opt.M {
				d.absorb = true
				d.shard, d.local = splitTupleID(bestID)
				d.dist = bestDist
			}
		}
	})
	sp.Mark(IngestStageDecide)

	// Phase 2: chain rows against the batch's own forming tuples in row
	// order. A row joins a batch tuple when it is within M and strictly
	// closer than the row's pre-batch absorption target (ties prefer the
	// established tuple), so near-duplicates arriving together end up in
	// one tuple just as they would one at a time. Rows with no text (zero
	// embedding) never chain; each gets its own singleton. Sequential and
	// layout-independent by design.
	var newTuples []batchTuple
	for i := range decs {
		d := &decs[i]
		if vector.Norm(d.vec) > 0 {
			best := -1
			var bestDist float32
			for t := range newTuples {
				dd := m.dist(d.vec, newTuples[t].centroid)
				if best < 0 || dd < bestDist {
					best, bestDist = t, dd
				}
			}
			if best >= 0 && bestDist <= m.opt.M && (!d.absorb || bestDist < d.dist) {
				nt := &newTuples[best]
				nt.rows = append(nt.rows, i)
				meanInto(nt.centroid, nt.rows, decs)
				if bestDist > nt.maxJoin {
					nt.maxJoin = bestDist
				}
				d.absorb = false
				d.batch = best
				d.dist = bestDist
				continue
			}
		}
		if d.absorb {
			continue
		}
		d.batch = len(newTuples)
		newTuples = append(newTuples, batchTuple{
			rows:     []int{i},
			centroid: append([]float32(nil), d.vec...),
			shard:    routeVec(d.vec, len(m.shards)),
		})
	}
	for i := range decs {
		if !decs[i].absorb {
			decs[i].shard = newTuples[decs[i].batch].shard
		}
	}

	// Phase 3: partition by destination shard, log, and apply concurrently.
	perShard := make([][]int, len(m.shards))
	for i := range decs {
		perShard[decs[i].shard] = append(perShard[decs[i].shard], i)
	}
	sp.Mark(IngestStageChain)

	// Write-ahead: the batch goes to the log (and, under fsync "always", to
	// stable storage) before any shard state changes. A failed append
	// rejects the batch with the state untouched.
	if mode == batchIngest && m.wal != nil {
		if err := m.walAppendBatch(rows); err != nil {
			return nil, err
		}
	}
	sp.Mark(IngestStageWAL)

	baseID := m.nextID
	m.nextID += len(rows)

	out := make([]AddResult, len(rows))
	views := make([]*shardView, len(m.shards))
	compactErrs := make([]error, len(m.shards))
	parallelFor(len(m.shards), len(m.shards), func(s int) {
		rowIdx := perShard[s]
		if len(rowIdx) == 0 {
			return
		}
		sh := m.shards[s]

		// Copy-on-write happens at chunk granularity inside the tuple table:
		// published views share its chunks, and mut copies a shared chunk
		// before the batch's first write into it, so this batch pays for the
		// chunks it dirties instead of the whole table. Member slices are
		// shared across copies — appends to them only write past every
		// published length, which no pinned reader can see. Centroid
		// refreshes likewise index new nodes instead of overwriting
		// published ones. Recovery replay gets in-place mutation for free:
		// no view is built between replayed batches, so every chunk stays
		// writer-owned and mut never copies.
		var touched []int           // pre-existing tuples whose centroid moved
		var created []int           // tuples created by this batch, in creation order
		batchLocal := map[int]int{} // batch tuple index -> local tuple index
		for _, i := range rowIdx {  // ascending row order: deterministic appends
			d := &decs[i]
			pos := sh.entVecs.Append(d.vec)
			sh.entIDs = append(sh.entIDs, baseID+i)
			if d.absorb {
				ts := sh.tuples.mut(d.local)
				ts.members = append(ts.members, pos)
				if d.dist > ts.maxJoinDist {
					ts.maxJoinDist = d.dist
				}
				if len(touched) == 0 || touched[len(touched)-1] != d.local {
					touched = append(touched, d.local)
				}
				out[i] = AddResult{EntityID: baseID + i, Tuple: globalTupleID(s, d.local), Absorbed: true, Distance: d.dist}
				continue
			}
			local, ok := batchLocal[d.batch]
			if !ok {
				// First row of a batch-formed tuple: create it. Later rows
				// of the same tuple count as absorbed at their join
				// distance, exactly as one-at-a-time ingestion would report.
				batchLocal[d.batch] = sh.tuples.len()
				created = append(created, sh.tuples.len())
				// The first row has the tuple's smallest entity ID: rows
				// chain in ascending order and batch IDs are dense.
				local = sh.tuples.append(tupleState{members: []int{pos}, maxJoinDist: newTuples[d.batch].maxJoin, minEntID: baseID + i})
				out[i] = AddResult{EntityID: baseID + i, Tuple: globalTupleID(s, local), Absorbed: false}
				continue
			}
			ts := sh.tuples.mut(local)
			ts.members = append(ts.members, pos)
			out[i] = AddResult{EntityID: baseID + i, Tuple: globalTupleID(s, local), Absorbed: true, Distance: d.dist}
		}
		// Index each batch-created tuple once, with its settled centroid,
		// then each touched tuple once with its recomputed one, under the
		// same local id: the previous index entry goes stale, and Match and
		// AddRecords re-rank against current centroids, so staleness only
		// costs recall head-room until compaction — not correctness. Add
		// fails only on a frozen index or a foreign dimensionality, neither
		// of which a writer-side shard can have.
		for _, local := range created {
			_ = sh.indexCentroid(local)
		}
		sort.Ints(touched)
		last := -1
		for _, local := range touched {
			if local == last {
				continue
			}
			last = local
			_ = sh.indexCentroid(local)
		}
		compactErrs[s] = sh.maybeCompact(m.shardHNSWConfig(s), m.dim)
		if mode != batchRecover {
			t0 := time.Now()
			views[s] = sh.view()
			m.obs().viewBuild.Record(time.Since(t0))
		}
	})
	sp.Mark(IngestStageApply)
	// One atomic swap installs every touched shard's new view and advances
	// the epoch: readers see the whole batch or none of it.
	if mode != batchRecover {
		m.commit(views)
		sp.Mark(IngestStagePublish)
		sp.End()
		ins := m.obs()
		ins.batches.Add(1)
		ins.rows.Add(int64(len(rows)))
	}
	if err := errors.Join(compactErrs...); err != nil {
		return out, fmt.Errorf("multiem: records ingested, but shard compaction failed: %w", err)
	}
	return out, nil
}

// tupleMinEntityID is the smallest member entity ID of a tuple: a
// layout-independent identity for deterministic tie-breaks (members of
// distinct tuples are disjoint, so the minimum is unique per tuple). It
// reads writer-side state; the caller holds addMu. Readers get the same
// value from their pinned view's tuples.
func (m *Matcher) tupleMinEntityID(s, local int) int {
	return m.shards[s].tuples.at(local).minEntID
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

// meanInto recomputes a batch tuple's running centroid: the unit-norm mean
// of its member rows' embeddings, summed in row order — the same derivation
// (and float-op order) centroidInto applies to the shard's member rows at apply.
func meanInto(dst []float32, rows []int, decs []addDecision) {
	for i := range dst {
		dst[i] = 0
	}
	for _, r := range rows {
		vector.Add(dst, decs[r].vec)
	}
	vector.Scale(dst, 1/float32(len(rows)))
	vector.Normalize(dst)
}

// Stats reports the matcher's current size, aggregated over shards.
func (m *Matcher) Stats() MatcherStats {
	s, _, _ := m.StatsWithShards()
	return s
}

// ShardStats reports per-shard sizes, one entry per shard in shard order.
func (m *Matcher) ShardStats() []ShardStats {
	_, per, _ := m.StatsWithShards()
	return per
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
