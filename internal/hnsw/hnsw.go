// Package hnsw implements the Hierarchical Navigable Small World approximate
// nearest-neighbour index of Malkov & Yashunin (TPAMI 2020) from scratch.
//
// The paper's merging phase (§III-C) builds an HNSW index per table (it uses
// hnswlib) and issues mutual top-K queries against it. This package provides
// the same algorithm in pure Go: a multi-layer proximity graph in which node
// levels follow a truncated geometric distribution, searches descend greedily
// from the sparse top layer, and the bottom layer is explored with an
// ef-bounded best-first beam. Neighbour sets are chosen with the paper's
// "select by heuristic" rule, which keeps the graph navigable on clustered
// data.
//
// Storage is flat, in the spirit of hnswlib: vectors live in one contiguous
// arena (vector.Store) addressed by internal index, and the adjacency lists
// of all nodes live in fixed-size int32 chunks behind a chunk-pointer spine
// (links.go), with per-node offsets and fixed per-layer capacities — no
// per-node or per-layer heap objects, no pointer chasing between a node and
// its links, and chunk-granular copy-on-write sharing between the writer and
// its frozen clones.
//
// The distance is the merging phase's one cosine, vector.CosineUnitDist over
// unit-norm (or zero) vectors; the index has no other. Every distance it
// computes — a query against a neighbour block, a node against the picks of
// selectHeuristic, a full node against its links when linkBack shrinks them —
// is one Index.dists call: vector.CosineUnitGather over the node arena. The
// arena stores links only; no distance is cached or persisted.
//
// Construction is serialized internally; Search is safe for concurrent use
// once construction has finished (the merging pipeline builds per-table
// indexes in parallel and then queries them from many goroutines).
package hnsw

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/vector"
)

// Config holds HNSW construction parameters.
type Config struct {
	// M is the maximum number of bidirectional links per node in the upper
	// layers; layer 0 allows 2*M. Typical values 8-48. Default 16.
	M int
	// EfConstruction is the beam width used while inserting. Default 200.
	EfConstruction int
	// EfSearch is the default beam width for queries; raise for recall,
	// lower for speed. Default 64. Search never uses a beam narrower
	// than k.
	EfSearch int
	// Seed makes level sampling deterministic. Default 1.
	Seed int64
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
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Index is an HNSW approximate nearest-neighbour index over flat storage.
//
// Adjacency layout: node i owns a contiguous region of regionSize(level)
// int32 slots inside the chunked link arena (links.go); offs[i] is the
// region's encoded chunk<<32|slot address. The region starts with the
// layer-0 block and is followed by one block per upper layer up to the
// node's level. Each block is a fixed-capacity counted list: slot 0 holds
// the link count, slots 1..cap hold neighbour indexes. Layer 0 has capacity
// 2*M, upper layers M, so block starts are pure arithmetic on the slot
// field — the shape serializes logically (per-node counted lists) and never
// allocates per node. Chunking exists for Clone: a copy-on-write view copies
// the chunk spine, not the links, and the writer copies only the chunks a
// batch dirties.
type Index struct {
	cfg    Config
	dim    int
	mu     sync.Mutex
	rng    *rand.Rand
	levelF float64 // 1 / ln(M)

	vecs   *vector.Store // row i = vector of internal node i
	ids    []int         // external id per node
	levels []int32       // top layer per node
	la     linkArena     // chunked adjacency arena, see links.go
	offs   []int64       // offs[i] = encoded arena offset of node i's region
	entry  int           // index into ids of the entry point; -1 when empty
	maxL   int
	// linked counts the nodes in the graph: 0..linked-1 are linked, the rest
	// were Appended and wait for Link. Entry and maxL describe the linked ones.
	linked int

	// searchPool holds *searchCtx for concurrent Search. Clones share the
	// origin's pool, like stats: a context's visit set is sized to the
	// index, so a pool per clone would allocate and zero 4 bytes a node on
	// the first Search of every published view.
	searchPool *sync.Pool
	buildCtx   *searchCtx // construction reuse, guarded by mu
	selScratch []vector.Neighbor
	backCands  []vector.Neighbor
	backSel    []vector.Neighbor

	// frozen marks a read-only Clone: Add fails on it, Search and Save work.
	frozen bool

	// stats accumulates per-query search effort. Clones share the pointer,
	// so totals aggregate across every copy-on-write view of one logical
	// index; CarrySearchStats keeps them monotonic across rebuilds.
	stats *searchStats
}

// searchStats counts Search work: queries served, nodes visited, and
// distance evaluations. Updated with three atomic adds per Search.
type searchStats struct {
	searches atomic.Uint64
	visited  atomic.Uint64
	evals    atomic.Uint64
}

// SearchStats reports totals over every Search on this index and the
// clones sharing its counters: queries served, nodes visited (marked
// during beam search or expanded during greedy descent), and distance
// evaluations (batched kernel calls count each scored row).
func (ix *Index) SearchStats() (searches, visited, distEvals uint64) {
	return ix.stats.searches.Load(), ix.stats.visited.Load(), ix.stats.evals.Load()
}

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
	// inner loops free of shared-memory traffic. Add's buildCtx also
	// bumps them, but never flushes — construction is not a query.
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

// dists sets out[j] to the distance from q to node idxs[j]: the gather kernel
// over the node arena, and the only place the index computes a distance. The
// arena is re-read on every call, so it stays valid across Appends by the
// same goroutine; q may be a node's own row.
func (ix *Index) dists(q []float32, idxs []int32, out []float32) {
	vector.CosineUnitGather(q, ix.vecs.Raw(), ix.dim, idxs, out)
}

// distTo is dists for the one node i, through ctx's scratch.
func (ix *Index) distTo(q []float32, i int, ctx *searchCtx) float32 {
	ctx.cands = append(ctx.cands[:0], int32(i))
	d := ctx.distBuf(1)
	ix.dists(q, ctx.cands, d)
	return d[0]
}

// New creates an empty index for vectors of the given dimensionality.
func New(dim int, cfg Config) *Index {
	cfg = cfg.withDefaults()
	return &Index{
		cfg:    cfg,
		dim:    dim,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		levelF: 1 / math.Log(float64(cfg.M)),
		vecs:   vector.NewStore(dim),
		entry:  -1,
		stats:  &searchStats{},

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

// Vector returns the stored vector of internal node i — nodes are numbered
// 0..Len()-1 in Add (or Append) order, so the node an Add just created is
// Len()-1, linked or not. The slice aliases the index's arena under
// vector.Store.At's rule: read-only, and valid until the next Add or Append
// (growth may move the arena; the values never change). On a frozen Clone it
// stays valid for the clone's lifetime. Callers that keep one vector per
// external id (the matcher's tuple centroids) read it back through this
// instead of holding a second copy.
func (ix *Index) Vector(i int) []float32 { return ix.vecs.At(i) }

// RawVectors returns the whole node arena, Len()*Dim() float32s with node i
// at [i*Dim(), (i+1)*Dim()), for the vector gather kernels. Same aliasing
// rule as Vector.
func (ix *Index) RawVectors() []float32 { return ix.vecs.Raw() }

// regionSize is the links-arena footprint of a node at the given level.
func (ix *Index) regionSize(level int) int {
	return (1 + 2*ix.cfg.M) + level*(1+ix.cfg.M)
}

// blockStart returns the encoded arena offset of node i's layer-l counted
// block. Regions never straddle chunks, so adding the in-region block delta
// to the slot field of the region offset stays inside the chunk.
func (ix *Index) blockStart(i, l int) int64 {
	off := ix.offs[i]
	if l == 0 {
		return off
	}
	return off + int64(1+2*ix.cfg.M+(l-1)*(1+ix.cfg.M))
}

// neighbors returns node i's layer-l links as a read view into the arena.
func (ix *Index) neighbors(i, l int) []int32 {
	blk := ix.la.block(ix.blockStart(i, l))
	return blk[1 : 1+blk[0]]
}

// prefetchLinks hints node i's layer-l link block towards L1. Reading a
// block is three dependent loads (offs, the chunk spine, the chunk), cold on
// most pops of a walk over a large index; issued before a block is scored
// they complete behind the arithmetic instead of in front of the next pop.
func (ix *Index) prefetchLinks(i, l int) {
	vector.PrefetchInt32s(ix.la.block(ix.blockStart(i, l)))
}

// layerCap is the link capacity at layer l (hnswlib's maxM/maxM0).
func (ix *Index) layerCap(l int) int {
	if l == 0 {
		return 2 * ix.cfg.M
	}
	return ix.cfg.M
}

// appendLink adds one neighbour to node i's layer-l block; the caller
// guarantees the block has room.
func (ix *Index) appendLink(i, l int, nb int32) {
	blk := ix.la.mutBlock(ix.blockStart(i, l))
	n := int(blk[0])
	blk[1+n] = nb
	blk[0] = int32(n + 1)
}

// Add inserts a vector under an external id: Append, then Link. The vector is
// copied into the index's arena; the caller keeps ownership of its slice.
func (ix *Index) Add(id int, vec []float32) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.appendNode(id, vec); err != nil {
		return err
	}
	ix.linkPending()
	return nil
}

// Append is the first half of Add: it draws the node's level, allocates its
// link region and stores its vector and id, as node Len()-1, without linking
// it into the graph. Vector, RawVectors, Len and IDs see the node at once;
// nothing searches it until Link. Append and Link in any interleaving build
// the graph, RNG stream and Save bytes that Adds of the same vectors build —
// so a node that is discarded before its Link (a compaction's input) costs
// no graph work at all.
func (ix *Index) Append(id int, vec []float32) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.appendNode(id, vec)
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

func (ix *Index) appendNode(id int, vec []float32) error {
	if ix.frozen {
		return fmt.Errorf("hnsw: Add on a frozen Clone")
	}
	if len(vec) != ix.dim {
		return fmt.Errorf("hnsw: vector has dim %d, index wants %d", len(vec), ix.dim)
	}
	level := ix.randomLevel()
	ix.ids = append(ix.ids, id)
	ix.levels = append(ix.levels, int32(level))
	ix.offs = append(ix.offs, ix.la.alloc(ix.regionSize(level)))
	ix.vecs.Append(vec)
	return nil
}

func (ix *Index) linkPending() {
	for ; ix.linked < len(ix.ids); ix.linked++ {
		ix.linkNode(ix.linked)
	}
}

// linkNode links node cur into the graph of nodes 0..cur-1.
func (ix *Index) linkNode(cur int) {
	level := int(ix.levels[cur])
	q := ix.vecs.At(cur)
	if ix.entry < 0 {
		ix.entry = cur
		ix.maxL = level
		return
	}

	ep := ix.entry
	// Greedy descent through layers above the new node's level.
	for l := ix.maxL; l > level; l-- {
		ep = ix.greedyClosest(q, ep, l, ix.buildCtx)
	}
	// Beam search + heuristic linking at each layer <= level.
	for l := min(level, ix.maxL); l >= 0; l-- {
		cands := ix.searchLayer(q, ep, ix.cfg.EfConstruction, l, ix.buildCtx)
		selected := ix.selectHeuristic(cands, ix.cfg.M, &ix.selScratch)
		for _, s := range selected {
			// s.Dist is dist(new, s); the distance is symmetric, so the
			// reverse edge carries the same distance.
			ix.appendLink(cur, l, int32(s.ID))
			ix.linkBack(s.ID, cur, l, s.Dist)
		}
		if len(cands) > 0 {
			ep = cands[0].ID
		}
	}
	if level > ix.maxL {
		ix.maxL = level
		ix.entry = cur
	}
}

// Clone returns a frozen, read-only copy of the index that concurrent
// Searches (and Save) may keep using while the original continues to take
// Adds — the building block for copy-on-write serving views. Nothing is
// deep-copied: the vector arena, ids, levels and offsets are append-only
// arrays and are clipped, the link arena (which linkBack rewrites in place)
// is a copy-on-write table and is snapshotted, under the two contracts stated
// on multiem's shardView. The RNG and construction scratch stay behind: they
// exist only for Add, which a frozen clone refuses. Cloning an index whose
// Appended nodes wait for Link panics.
func (ix *Index) Clone() *Index {
	ix.mustBeLinked("Clone")
	return &Index{
		cfg:    ix.cfg,
		dim:    ix.dim,
		levelF: ix.levelF,
		vecs:   ix.vecs.Frozen(),
		ids:    slices.Clip(ix.ids),
		levels: slices.Clip(ix.levels),
		la:     ix.la.snapshot(),
		offs:   slices.Clip(ix.offs),
		entry:  ix.entry,
		maxL:   ix.maxL,
		linked: ix.linked,
		frozen: true,
		stats:  ix.stats, // shared: clone searches count towards the origin

		searchPool: ix.searchPool, // shared: a warm context fits every view
	}
}

// randomLevel samples a node level from the truncated geometric
// distribution floor(-ln(U) * mL).
func (ix *Index) randomLevel() int {
	u := ix.rng.Float64()
	for u == 0 {
		u = ix.rng.Float64()
	}
	return int(-math.Log(u) * ix.levelF)
}

// greedyClosest walks layer l greedily from ep towards q, returning the local
// minimum. Each hop scores the whole neighbour block in one dists call; the
// running-minimum scan over the results in block order makes the walk
// identical to the per-neighbour version.
func (ix *Index) greedyClosest(q []float32, ep, l int, ctx *searchCtx) int {
	cur := ep
	curDist := ix.distTo(q, cur, ctx)
	ctx.evals++
	for {
		nbs := ix.neighbors(cur, l)
		if len(nbs) == 0 {
			return cur
		}
		ctx.visited++
		ctx.evals += uint64(len(nbs))
		dists := ctx.distBuf(len(nbs))
		ix.dists(q, nbs, dists)
		improved := false
		for j, nb := range nbs {
			if dists[j] < curDist {
				cur, curDist = int(nb), dists[j]
				improved = true
			}
		}
		if !improved {
			return cur
		}
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

// searchLayer is Algorithm 2 of the HNSW paper: best-first beam search with
// width ef at layer l, returning up to ef results sorted by distance. The
// returned slice is ctx.out — valid until the ctx's next search.
//
// Neighbour expansion is batched: each popped node's unvisited neighbours
// are collected and scored in one dists call over the flat links arena, then
// pushed in block order — the same order the per-neighbour loop used, so the
// best.Worst() gating sequence and therefore the result set are unchanged.
// The walk's two kinds of cache miss are both asked for early and change
// nothing it computes: the block's rows inside dists, the next pop's link
// block just before it.
func (ix *Index) searchLayer(q []float32, ep, ef, l int, ctx *searchCtx) []vector.Neighbor {
	ctx.visit.reset(len(ix.ids))
	ctx.visit.visit(int32(ep))
	epDist := ix.distTo(q, ep, ctx)
	ctx.visited++
	ctx.evals++

	ctx.frontier.Reset()
	ctx.frontier.Push(vector.Neighbor{ID: ep, Dist: epDist})
	best := &ctx.best
	best.Reset(ef)
	best.Push(ep, epDist)

	for ctx.frontier.Len() > 0 {
		c := ctx.frontier.Pop()
		if best.Full() && c.Dist > best.Worst() {
			break
		}
		unv := ctx.cands[:0]
		for _, nb := range ix.neighbors(c.ID, l) {
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
			ix.prefetchLinks(ctx.frontier.Min().ID, l)
		}
		dists := ctx.distBuf(len(unv))
		ix.dists(q, unv, dists)
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
// cands is returned as-is. Each candidate is scored against all the picks so
// far in one dists call, through buildCtx's scratch: selection runs only
// under construction, after the search that produced cands has returned.
func (ix *Index) selectHeuristic(cands []vector.Neighbor, m int, scratch *[]vector.Neighbor) []vector.Neighbor {
	if len(cands) <= m {
		return cands
	}
	ctx := ix.buildCtx
	picks := ctx.cands[:0]
	selected := (*scratch)[:0]
	for _, c := range cands {
		if len(selected) == m {
			break
		}
		dists := ctx.distBuf(len(picks))
		ix.dists(ix.vecs.At(c.ID), picks, dists)
		ok := true
		for _, d := range dists {
			if d < c.Dist {
				ok = false
				break
			}
		}
		if ok {
			selected = append(selected, c)
			picks = append(picks, int32(c.ID))
		}
	}
	ctx.cands = picks
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
// new node, which lies at distance d, shrinking the neighbour list with the
// heuristic when it is full. The shrink scores from's current links in one
// dists call, the only place the index computes the distance of an existing
// link; the gather is symmetric to the bit, so each value equals the one
// computed from the link's other end when it was made.
func (ix *Index) linkBack(from, to, l int, d float32) {
	blk := ix.la.mutBlock(ix.blockStart(from, l))
	cnt := int(blk[0])
	maxM := ix.layerCap(l)
	if cnt < maxM {
		blk[1+cnt] = int32(to)
		blk[0] = int32(cnt + 1)
		return
	}
	nbs := blk[1 : 1+cnt]
	dists := ix.buildCtx.distBuf(cnt)
	ix.dists(ix.vecs.At(from), nbs, dists)
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
	if ix.entry < 0 || k <= 0 {
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
	ep := ix.entry
	for l := ix.maxL; l > 0; l-- {
		ep = ix.greedyClosest(q, ep, l, ctx)
	}
	res := ix.searchLayer(q, ep, ef, 0, ctx)
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
