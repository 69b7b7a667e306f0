// Package hnsw implements a navigable small-world graph for approximate
// nearest-neighbour search, from scratch, in pure Go.
//
// The paper's merging phase (§III-C) builds an HNSW index per table (it uses
// hnswlib, after Malkov & Yashunin, TPAMI 2020) and issues mutual top-K
// queries against it. This package keeps HNSW's bottom layer and drops its
// hierarchy: the graph is the single flat layer of the NSW graph HNSW extends
// (Malkov et al., Information Systems 2014). Munyampirwa, Lakshman & Coleman
// ("Down with the Hierarchy", 2024) show that on high-dimensional data hub
// nodes already give a flat graph the short paths the upper layers were for;
// on this repository's embeddings it reaches HNSW's recall with fewer
// distance evaluations. Every insert and search walks the one layer with an
// ef-bounded best-first beam from node 0, and neighbour sets are chosen with
// HNSW's "select by heuristic" rule, which keeps the graph navigable on
// clustered data. Nothing is random: the graph is a function of the inserted
// vectors, their order and the Config.
//
// Storage is flat, in the spirit of hnswlib, and chunked: the vectors and the
// links are copy-on-write arenas (arena.Arena) indexed by node — the vectors
// as bitmask rows (vector.SparseRows: a mask of the nonzero coordinates and
// their values, about 415 B for a dim-256 centroid instead of 1 KiB), every
// node's links in one fixed block of int32 slots (links.go). There are no
// per-node heap objects; a row or block address is arithmetic on the node
// index, growth copies nothing, and the writer shares chunks with its frozen
// clones. The node rows are a descriptor table over a data arena
// (vector.RowData) that New makes for the index alone and NewOn takes from
// a caller who stores other rows there: the online matcher's shard keeps its
// entity rows and its index's node rows in one arena, and a node whose row
// has an entity row's words (Append's alias) is that row. A walk reads a
// node's row through its descriptor either way.
//
// The distance is the merging phase's one cosine, vector.CosineUnitDist over
// unit-norm (or zero) vectors; the index has no other. Every distance it
// computes to a stored row — a query against a neighbour block, a full node
// against its links when linkBack shrinks them, a caller re-ranking nodes it
// holds — is one Index.Dists call: the sparse store's CosineUnitGather over
// the node arena, which expands each row to the dense row's bits.
// selectHeuristic, which scores a candidate against the picks so far, holds
// the picks expanded and takes 1 − vector.DotBatch over them: the same bits.
// The link arena stores links only; no distance is cached or persisted.
//
// Construction is serialized internally; Search is safe for concurrent use
// once construction has finished (the merging pipeline builds per-table
// indexes in parallel and then queries them from many goroutines).
package hnsw

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/vector"
)

// Config holds HNSW construction parameters.
type Config struct {
	// M is the number of neighbours an insert links a new node to; a node
	// keeps at most 2*M links, which is its block's capacity. Typical values
	// 8-48. Default 16.
	M int
	// EfConstruction is the beam width used while inserting. Default 200.
	EfConstruction int
	// EfSearch is the default beam width for queries; raise for recall,
	// lower for speed. Default 64. Search never uses a beam narrower
	// than k.
	EfSearch int
}

func (c Config) withDefaults() Config {
	if c.M <= 0 {
		c.M = 16
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = 200
	}
	if c.EfSearch <= 0 {
		c.EfSearch = 64
	}
	return c
}

// Index is a flat navigable graph over flat storage.
//
// Entry rule: every search and every insert starts its walk at node 0, the
// first vector inserted — after a multiem compaction, tuple 0's centroid.
// There is no other entry point and nothing that moves one.
//
// Adjacency layout: node i owns row i of the link arena, a block of 1+2M
// int32 slots (links.go). A block is a counted list: slot 0 holds the link
// count, slots 1..2M neighbour indexes, and the slots past the count are
// zero. Chunking exists for Clone: a copy-on-write view shares the chunks,
// and the writer copies only the chunks a batch dirties.
type Index struct {
	cfg Config
	dim int
	mu  sync.Mutex

	vecs *vector.SparseRows // row i = vector of internal node i
	ids  []int              // external id per node
	la   arena.Arena[int32] // node i's link block is row i, see links.go
	// linked counts the nodes in the graph: 0..linked-1 are linked, the rest
	// were Appended and wait for Link.
	linked int

	// searchPool holds *searchCtx for concurrent Search. Clones share the
	// origin's pool, like stats: a context's visit set is sized to the
	// index, so a pool per clone would allocate and zero 4 bytes a node on
	// the first Search of every published view.
	searchPool *sync.Pool
	buildCtx   *searchCtx // construction reuse, guarded by mu
	// nodeBuf and pickVecs hold dense copies of node vectors for
	// construction: the node linkNode inserts or linkBack shrinks, and
	// selectHeuristic's picks and candidate. Guarded by mu.
	nodeBuf, pickVecs []float32
	selScratch        []vector.Neighbor
	backCands         []vector.Neighbor
	backSel           []vector.Neighbor

	// frozen marks a read-only Clone: Add fails and Append panics on it;
	// Search and Save work.
	frozen bool

	// stats accumulates per-query search effort. Clones share the pointer,
	// so totals aggregate across every copy-on-write view of one logical
	// index; CarrySearchStats keeps them monotonic across rebuilds.
	stats *searchStats
}

// searchStats counts Search work: queries served, nodes visited, and
// distance evaluations, updated with three atomic adds per Search; and the
// rows Link scored, one add per linked node.
type searchStats struct {
	searches  atomic.Uint64
	visited   atomic.Uint64
	evals     atomic.Uint64
	linkEvals atomic.Uint64
}

// SearchStats reports totals over every Search on this index and the
// clones sharing its counters: queries served, nodes visited, and distance
// evaluations (batched kernel calls count each scored row). With one layer
// there is no descent, and the beam scores each node it marks exactly once,
// so visited equals distance evaluations.
func (ix *Index) SearchStats() (searches, visited, distEvals uint64) {
	return ix.stats.searches.Load(), ix.stats.visited.Load(), ix.stats.evals.Load()
}

// LinkEvals reports the distance evaluations linking has made, over the same
// counters SearchStats reads: the insert beams, the heuristic's candidate
// checks and linkBack's shrinks.
func (ix *Index) LinkEvals() uint64 { return ix.stats.linkEvals.Load() }

// CarrySearchStats makes ix share from's search counters, so a rebuilt
// index (compaction) keeps the logical index's totals monotonic.
func (ix *Index) CarrySearchStats(from *Index) { ix.stats = from.stats }

// searchCtx bundles the per-search working set — visited marks, frontier,
// result accumulator, output buffer, and the unvisited-candidate/distance
// scratch for batched neighbour expansion — so one pool hit covers all of
// them.
type searchCtx struct {
	visit    visitSet
	frontier vector.MinHeap
	best     vector.TopK
	out      []vector.Neighbor
	cands    []int32
	dists    []float32
	// visited/evals accumulate one query's effort locally; Search resets
	// them and flushes to Index.stats in three atomic adds, keeping the
	// inner loops free of shared-memory traffic. buildCtx counts a linked
	// node's evaluations in evals, which linkPending flushes to the link
	// counter — construction is not a query.
	visited uint64
	evals   uint64
}

// distBuf returns an n-sized distance scratch, growing the backing array
// geometrically so steady-state searches never allocate.
func (ctx *searchCtx) distBuf(n int) []float32 {
	if cap(ctx.dists) < n {
		ctx.dists = make([]float32, max(n, 2*cap(ctx.dists)))
	}
	return ctx.dists[:n]
}

// Dists sets out[j] to the distance from q to node idxs[j] (nodes numbered
// as Vector numbers them): the gather kernel over the node arena, and the
// only place a distance to a stored vector is computed — the index's own
// walks and a caller re-ranking nodes it holds alike. q may be a node's own
// row; a node index outside 0..Len()-1 panics.
func (ix *Index) Dists(q []float32, idxs []int32, out []float32) {
	ix.vecs.CosineUnitGather(q, idxs, out)
}

// distTo is Dists for the one node i, through ctx's scratch.
func (ix *Index) distTo(q []float32, i int, ctx *searchCtx) float32 {
	ctx.cands = append(ctx.cands[:0], int32(i))
	d := ctx.distBuf(1)
	ix.Dists(q, ctx.cands, d)
	return d[0]
}

// New creates an empty index for vectors of the given dimensionality, its
// node rows on a data arena of its own.
func New(dim int, cfg Config) *Index { return NewOn(vector.NewRowData(dim), cfg) }

// NewOn creates an empty index whose node rows are a table on data, a data
// arena its caller shares: Append makes a node of a row another table
// stored there. The caller must not write data while the index does, nor
// while a Clone of it is being taken.
func NewOn(data *vector.RowData, cfg Config) *Index {
	cfg = cfg.withDefaults()
	return &Index{
		cfg:   cfg,
		dim:   data.Dim(),
		vecs:  vector.NewSparseRowsOn(data),
		la:    newLinks(cfg.M),
		stats: &searchStats{},

		searchPool: &sync.Pool{New: func() any { return newSearchCtx() }},
		buildCtx:   newSearchCtx(),
	}
}

func newSearchCtx() *searchCtx {
	ctx := &searchCtx{}
	ctx.best.Reset(1)
	return ctx
}

// Len reports the number of indexed vectors.
func (ix *Index) Len() int { return len(ix.ids) }

// Dim reports the vector dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// CopyTo sets dst, of Dim() elements, to the stored vector of internal node
// i, bit for bit — nodes are numbered 0..Len()-1 in Add (or Append) order, so
// the node an Add just created is Len()-1, linked or not. Callers that keep
// one vector per external id (the matcher's tuple centroids) read it back
// through this instead of holding a second copy.
func (ix *Index) CopyTo(dst []float32, i int) { ix.vecs.CopyTo(dst, i) }

// Vectors returns the node row table, for reading its size and layout. The
// caller must not modify it.
func (ix *Index) Vectors() *vector.SparseRows { return ix.vecs }

// neighbors returns node i's links as a read view into the arena.
func (ix *Index) neighbors(i int) []int32 {
	blk := ix.la.At(i)
	return blk[1 : 1+blk[0]]
}

// prefetchLinks hints node i's link block towards L1. Reading a block is two
// dependent loads (the chunk spine, the chunk), cold on most pops of a walk
// over a large index; issued before a block is scored they complete behind
// the arithmetic instead of in front of the next pop.
func (ix *Index) prefetchLinks(i int) {
	vector.PrefetchInt32s(ix.la.At(i))
}

// appendLink adds one neighbour to node i's block; the caller guarantees the
// block has room.
func (ix *Index) appendLink(i int, nb int32) {
	blk := ix.la.Mut(i)
	n := int(blk[0])
	blk[1+n] = nb
	blk[0] = int32(n + 1)
}

// Add inserts a vector under an external id: Append, then Link. The vector is
// copied into the index's arena; the caller keeps ownership of its slice.
// It fails on a frozen Clone or a vector of another dimensionality.
func (ix *Index) Add(id int, vec []float32) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.refuses(vec); err != nil {
		return err
	}
	ix.vecs.Append(vec)
	ix.appendNode(id)
	ix.linkPending()
	return nil
}

// Append is the first half of Add: it stores the node's vector and id, as
// node Len()-1, and gives it an empty link block, without linking it into the
// graph. Vector, Dists, Len and IDs see the node at once; nothing
// searches it until Link. Append and Link in any interleaving build the graph
// and Save bytes that Adds of the same vectors build — so a node that is
// discarded before its Link (a compaction's input) costs no graph work at
// all. alias, which may be the zero Ref, names a row on NewOn's data arena
// that the node is, storing no words, where that row's words are vec's
// (vector.SparseRows.AppendShared).
//
// Append panics where Add fails, as Search does on a foreign query: an owner
// inserting its own vectors into its own index can hit neither case.
func (ix *Index) Append(id int, vec []float32, alias vector.Ref) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.refuses(vec); err != nil {
		panic(err.Error())
	}
	ix.vecs.AppendShared(vec, alias)
	ix.appendNode(id)
}

// Link links every Appended node not linked yet, in node order — what their
// Adds would have done, at a later time.
func (ix *Index) Link() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.linkPending()
}

// Unlinked reports how many Appended nodes wait for Link.
func (ix *Index) Unlinked() int { return len(ix.ids) - ix.linked }

// mustBeLinked panics, naming op and the count, when nodes wait for Link: a
// graph missing them would answer, clone and save a different index.
func (ix *Index) mustBeLinked(op string) {
	if n := ix.Unlinked(); n != 0 {
		panic(fmt.Sprintf("hnsw: %s with %d appended nodes not linked", op, n))
	}
}

// refuses says why vec cannot be inserted, or nil when it can.
func (ix *Index) refuses(vec []float32) error {
	if ix.frozen {
		return fmt.Errorf("hnsw: insert into a frozen Clone")
	}
	if len(vec) != ix.dim {
		return fmt.Errorf("hnsw: vector has dim %d, index wants %d", len(vec), ix.dim)
	}
	return nil
}

// appendNode gives the row just appended to the node table its id and an
// empty link block.
func (ix *Index) appendNode(id int) {
	ix.ids = append(ix.ids, id)
	ix.la.Grow(1)
}

func (ix *Index) linkPending() {
	ctx := ix.buildCtx
	for ; ix.linked < len(ix.ids); ix.linked++ {
		ctx.evals = 0
		ix.linkNode(ix.linked)
		ix.stats.linkEvals.Add(ctx.evals)
	}
}

// linkNode links node cur into the graph of nodes 0..cur-1: a beam search
// from node 0, M neighbours picked by the heuristic, and a reverse link from
// each. Node 0 has nothing to link to.
func (ix *Index) linkNode(cur int) {
	if cur == 0 {
		return
	}
	q := ix.denseNode(&ix.nodeBuf, cur)
	cands := ix.searchLayer(q, ix.cfg.EfConstruction, ix.buildCtx)
	for _, s := range ix.selectHeuristic(cands, ix.cfg.M, &ix.selScratch) {
		// s.Dist is dist(new, s); the distance is symmetric, so the reverse
		// edge carries the same distance.
		ix.appendLink(cur, int32(s.ID))
		ix.linkBack(s.ID, cur, s.Dist)
	}
}

// denseNode expands node i's vector into *buf, sized to the dimension on
// first use, and returns it.
func (ix *Index) denseNode(buf *[]float32, i int) []float32 {
	if len(*buf) != ix.dim {
		*buf = make([]float32, ix.dim)
	}
	ix.vecs.CopyTo(*buf, i)
	return *buf
}

// Clone returns a frozen, read-only copy of the index that concurrent
// Searches (and Save) may keep using while the original continues to take
// Adds — the building block for copy-on-write serving views. Nothing is
// deep-copied: the ids are clipped, and the vector and link arenas are
// snapshotted (arena.Arena), so the original's later linkBack rewrites copy
// the chunks they dirty. The construction scratch stays behind: it exists
// only for Add, which a frozen clone refuses. Cloning an index whose
// Appended nodes wait for Link panics.
func (ix *Index) Clone() *Index { return ix.CloneOn(ix.vecs.Data().Frozen()) }

// CloneOn is Clone over data, a Frozen snapshot of the index's data arena
// taken now, which the caller's other frozen tables on the arena share.
func (ix *Index) CloneOn(data *vector.RowData) *Index {
	ix.mustBeLinked("Clone")
	return &Index{
		cfg:    ix.cfg,
		dim:    ix.dim,
		vecs:   ix.vecs.FrozenOn(data),
		ids:    slices.Clip(ix.ids),
		la:     ix.la.Snapshot(),
		linked: ix.linked,
		frozen: true,
		stats:  ix.stats, // shared: clone searches count towards the origin

		searchPool: ix.searchPool, // shared: a warm context fits every view
	}
}

// visitSet is a reusable epoch-stamped visited marker: marking is an array
// store and resets are O(1) epoch bumps. It replaces a per-search hash map,
// which dominated search cost at scale.
type visitSet struct {
	stamps []uint32
	epoch  uint32
}

// reset empties the set and sizes it for nodes 0..n-1. It grows
// geometrically: an index that gains a node per Add would otherwise
// allocate and zero a fresh 4n-byte array on every insert.
func (v *visitSet) reset(n int) {
	if len(v.stamps) < n {
		v.stamps = make([]uint32, max(n, 2*len(v.stamps)))
		v.epoch = 0
	}
	v.epoch++
	if v.epoch == 0 { // wrapped: clear and restart
		for i := range v.stamps {
			v.stamps[i] = 0
		}
		v.epoch = 1
	}
}

func (v *visitSet) visit(i int32) bool {
	if v.stamps[i] == v.epoch {
		return true
	}
	v.stamps[i] = v.epoch
	return false
}

// searchLayer is Algorithm 2 of the HNSW paper on the one layer: best-first
// beam search with width ef from node 0, returning up to ef results sorted by
// distance. The returned slice is ctx.out — valid until the ctx's next
// search.
//
// Neighbour expansion is batched: each popped node's unvisited neighbours
// are collected and scored in one Dists call, then pushed in block order —
// the same order the per-neighbour loop used, so the best.Worst() gating
// sequence and therefore the result set are unchanged.
// The walk's two kinds of cache miss are both asked for early and change
// nothing it computes: the block's rows inside Dists, the next pop's link
// block just before it.
func (ix *Index) searchLayer(q []float32, ef int, ctx *searchCtx) []vector.Neighbor {
	ctx.visit.reset(len(ix.ids))
	ctx.visit.visit(0)
	epDist := ix.distTo(q, 0, ctx)
	ctx.visited++
	ctx.evals++

	ctx.frontier.Reset()
	ctx.frontier.Push(vector.Neighbor{ID: 0, Dist: epDist})
	best := &ctx.best
	best.Reset(ef)
	best.Push(0, epDist)

	for ctx.frontier.Len() > 0 {
		c := ctx.frontier.Pop()
		if best.Full() && c.Dist > best.Worst() {
			break
		}
		unv := ctx.cands[:0]
		for _, nb := range ix.neighbors(c.ID) {
			if !ctx.visit.visit(nb) {
				unv = append(unv, nb)
			}
		}
		ctx.cands = unv
		if len(unv) == 0 {
			continue
		}
		ctx.visited += uint64(len(unv))
		ctx.evals += uint64(len(unv))
		// The frontier's head is the next pop unless this block holds a
		// closer node: ask for its links now, behind the block's arithmetic.
		if ctx.frontier.Len() > 0 {
			ix.prefetchLinks(ctx.frontier.Min().ID)
		}
		dists := ctx.distBuf(len(unv))
		ix.Dists(q, unv, dists)
		for j, nb := range unv {
			d := dists[j]
			if !best.Full() || d < best.Worst() {
				best.Push(int(nb), d)
				ctx.frontier.Push(vector.Neighbor{ID: int(nb), Dist: d})
			}
		}
	}
	ctx.out = best.ResultsAppend(ctx.out[:0])
	return ctx.out
}

// selectHeuristic is Algorithm 4 of the HNSW paper: pick up to m neighbours
// from candidates (sorted by distance to the query), skipping any candidate
// that is closer to an already-selected neighbour than to the query. This
// spreads links across clusters and preserves graph navigability. scratch
// backs the result when selection is needed; when candidates already fit,
// cands is returned as-is. Each candidate is expanded once and scored
// against dense copies of all the picks so far in one vector.DotBatch call,
// through buildCtx's scratch: selection runs only under construction, after
// the search that produced cands has returned. 1 − DotBatch has the bits of
// Dists, whose gather expands each row to exactly those values, and the
// picks, a dozen or two rows, are read from L1 instead of from the arena.
func (ix *Index) selectHeuristic(cands []vector.Neighbor, m int, scratch *[]vector.Neighbor) []vector.Neighbor {
	if len(cands) <= m {
		return cands
	}
	ctx := ix.buildCtx
	if len(ix.pickVecs) < m*ix.dim {
		ix.pickVecs = make([]float32, m*ix.dim)
	}
	selected := (*scratch)[:0]
	for _, c := range cands {
		if len(selected) == m {
			break
		}
		// The candidate is expanded into the slot after the picks' own dense
		// copies, where it stays if it is picked.
		n := len(selected) * ix.dim
		cv := ix.pickVecs[n : n+ix.dim]
		ix.vecs.CopyTo(cv, c.ID)
		dots := ctx.distBuf(len(selected))
		ctx.evals += uint64(len(selected))
		vector.DotBatch(cv, ix.pickVecs[:n], ix.dim, dots)
		ok := true
		for _, dot := range dots {
			if 1-dot < c.Dist {
				ok = false
				break
			}
		}
		if ok {
			selected = append(selected, c)
		}
	}
	// Backfill with nearest skipped candidates if the heuristic was too
	// aggressive (hnswlib's keepPrunedConnections behaviour). The picks so
	// far are a subsequence of cands in order, so a two-pointer scan finds
	// the skipped ones without the map the old implementation allocated on
	// every overflowing linkBack.
	if nsel := len(selected); nsel < m {
		si := 0
		for _, c := range cands {
			if len(selected) == m {
				break
			}
			if si < nsel && selected[si].ID == c.ID {
				si++
				continue
			}
			selected = append(selected, c)
		}
	}
	*scratch = selected
	return selected
}

// linkBack adds a reverse edge from the node at internal index from to the
// new node, which lies at distance d, shrinking the neighbour list to 2*M
// with the heuristic when it is full. The shrink keeps exactly 2*M (the
// heuristic backfills), so a block's count never falls and its slack slots
// stay zero. The shrink scores from's current links in one
// Dists call, the only place the index computes the distance of an existing
// link; the gather is symmetric to the bit, so each value equals the one
// computed from the link's other end when it was made.
func (ix *Index) linkBack(from, to int, d float32) {
	blk := ix.la.Mut(from)
	cnt := int(blk[0])
	maxM := 2 * ix.cfg.M
	if cnt < maxM {
		blk[1+cnt] = int32(to)
		blk[0] = int32(cnt + 1)
		return
	}
	nbs := blk[1 : 1+cnt]
	dists := ix.buildCtx.distBuf(cnt)
	ix.buildCtx.evals += uint64(cnt)
	ix.Dists(ix.denseNode(&ix.nodeBuf, from), nbs, dists)
	cands := ix.backCands[:0]
	for k, nb := range nbs {
		cands = append(cands, vector.Neighbor{ID: int(nb), Dist: dists[k]})
	}
	cands = append(cands, vector.Neighbor{ID: to, Dist: d})
	ix.backCands = cands
	sortNeighbors(cands)
	kept := ix.selectHeuristic(cands, maxM, &ix.backSel)
	for i, kn := range kept {
		blk[1+i] = int32(kn.ID)
	}
	blk[0] = int32(len(kept))
}

// Search returns the (approximately) k nearest stored vectors to q, sorted
// by increasing distance, with external ids. ef overrides the configured
// EfSearch when positive. A q of another dimensionality, or Appended nodes
// that wait for Link, are programming errors and panic, as the distance
// kernels do.
func (ix *Index) Search(q []float32, k, ef int) []vector.Neighbor {
	ix.mustBeLinked("Search")
	if len(ix.ids) == 0 || k <= 0 {
		return nil
	}
	if len(q) != ix.dim {
		panic(fmt.Sprintf("hnsw: query has dim %d, index wants %d", len(q), ix.dim))
	}
	if ef <= 0 {
		ef = ix.cfg.EfSearch
	}
	if ef < k {
		ef = k
	}
	ctx := ix.searchPool.Get().(*searchCtx)
	defer ix.searchPool.Put(ctx)
	ctx.visited, ctx.evals = 0, 0
	res := ix.searchLayer(q, ef, ctx)
	ix.stats.searches.Add(1)
	ix.stats.visited.Add(ctx.visited)
	ix.stats.evals.Add(ctx.evals)
	if len(res) > k {
		res = res[:k]
	}
	// Translate internal indexes to external ids.
	out := make([]vector.Neighbor, len(res))
	for i, r := range res {
		out[i] = vector.Neighbor{ID: ix.ids[r.ID], Dist: r.Dist}
	}
	return out
}

func sortNeighbors(ns []vector.Neighbor) {
	// Insertion sort: neighbour lists are tiny (<= 2M+1).
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j].Dist < ns[j-1].Dist; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}
