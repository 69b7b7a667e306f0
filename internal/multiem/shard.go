package multiem

import (
	"math"
	"slices"
	"sort"

	"repro/internal/hnsw"
	"repro/internal/vector"
)

// The online matcher is hash-sharded: every tuple lives in exactly one shard,
// which owns the tuple's member entities (their IDs and embedding rows), its
// centroid, and the HNSW entry. Reads never lock: each shard's serving state
// is an immutable shardView published through the matcher-level epoch view
// (see matcherView in matcher.go), and writers — serialized by the matcher's
// ingest lock — mutate private state and publish fresh views for every shard
// a batch touched with one atomic swap.
//
// A tuple is addressed globally as shard<<tupleShardShift | local. The local
// part is the tuple's index into its shard's slices, so global IDs are stable
// for the matcher's lifetime (tuples are never moved between shards). With a
// single shard the encoding degenerates to the plain local index.
const (
	tupleShardShift = 32
	tupleLocalMask  = (1 << tupleShardShift) - 1
)

// globalTupleID encodes a (shard, local) pair into one stable tuple ID.
// Requires a 64-bit int, which every supported platform has.
func globalTupleID(shard, local int) int {
	return shard<<tupleShardShift | local
}

// splitTupleID decodes a global tuple ID back into (shard, local).
func splitTupleID(id int) (shard, local int) {
	return id >> tupleShardShift, id & tupleLocalMask
}

// shardView is one shard's state — its entities, its tuples and the centroid
// index over them — and the only type that holds them: a published view is
// one that is never written again, the writer's shard one it may mutate.
//
// Every structure here is built so a published view stays valid while the
// writer keeps going:
//
//   - The two id slices (entIDs, and the index's ids) are append-only:
//     existing elements are never overwritten, the writer appends past every
//     frozen length, in place or into a new backing array, and a view clips
//     them with slices.Clip.
//   - Every table is one kind, arena.Arena: rows in fixed chunks behind a
//     spine, so a stored row never moves. The tables are the tuple table,
//     the index's link blocks, and the shard's one data arena of bitmask
//     rows (vector.RowData: mask and value words) under two descriptor
//     tables, entVecs's and the index's node table (vector.SparseRows). A
//     view takes a snapshot of each — one of the data arena, which both
//     descriptor tables share — which clips the spine in O(1) and marks
//     every chunk and the spine shared. Appends write past every frozen
//     length, in place; a write to an existing row (a tuple's node, a node's
//     links — never a row of the data arena) copies its chunk first, and the
//     batch's first such write copies the spine.
//
// So a view copies no row and no spine (it clears one ownership flag a
// chunk), and the writer's next batch copies only the chunks it dirties and
// at most one spine a table.
//
// The index's node table is the only copy of the tuple centroids. A node's
// vector is immutable, so a recomputed centroid is indexed as a new node
// under the same tuple id, never written over one a view may be reading;
// tupleState.node says which node is current, and the superseded ones are
// the index's stale entries until the next compaction rebuilds it dense. A
// node whose centroid has its tuple's first member's bits — every node of a
// one-member tuple — is that member's entity row (indexNode): its descriptor
// names the row's words, and it stores none of its own.
type shardView struct {
	// entIDs maps local entity row -> global entity ID. Append-only.
	entIDs []int
	// entVecs holds the embeddings of every entity owned by this shard, as
	// bitmask rows on the shard's data arena (entVecs.Data()), which the
	// index's node rows share; a tuple's members index into it. The
	// centroid sums read it, and the walks through the nodes that alias its
	// rows. Append-only.
	entVecs *vector.SparseRows
	// tuples is the tuple table (tupletable.go): the writer's copy in a
	// shard, a snapshot of it in a published view.
	tuples tupleTable
	// index is the HNSW index over tuple centroids, ids = local tuple
	// indexes. Append-only between compactions.
	index *hnsw.Index
	// compactions counts stale-centroid index rebuilds (persisted, so stats
	// survive a save/load round-trip).
	compactions int64
}

// shard is the writer's side of one shard: the mutable shardView plus the
// scratch an apply reuses from batch to batch. It is guarded by the
// matcher's ingest lock (addMu) — only ingest and recovery replay touch it —
// and readers never see it, only the views taken of it.
type shard struct {
	shardView
	// centroid (dim floats) is where a settled centroid is computed before
	// indexNode stores it, and where a replay stream or a compaction reads a
	// current one back (centroidAt); touched collects the pre-existing
	// tuples a batch absorbed rows into.
	centroid []float32
	touched  []int
}

// view freezes the shard's current state into an immutable shardView (see
// shardView). The caller holds addMu and has linked the index.
func (sh *shard) view() *shardView {
	data := sh.entVecs.Data().Frozen()
	return &shardView{
		entIDs:      slices.Clip(sh.entIDs),
		entVecs:     sh.entVecs.FrozenOn(data),
		tuples:      tupleTable{sh.tuples.Snapshot()},
		index:       sh.index.CloneOn(data),
		compactions: sh.compactions,
	}
}

// centroidAt writes tuple local's current centroid — the vector of its
// current index node — into dst, of the matcher's dimension, and returns it.
func (v *shardView) centroidAt(dst []float32, local int) []float32 {
	v.index.CopyTo(dst, int(v.tuples.at(local).node))
	return dst
}

// indexCentroid recomputes tuple local's centroid from its members, appends
// it as a new node under the tuple's id, and makes that node current. The
// tuple's previous node, if it had one, goes stale. The node's vector is
// readable at once; it is linked into the graph when whoever next takes a
// view of the shard calls index.Link. The caller holds addMu.
func (sh *shard) indexCentroid(local int) {
	centroidInto(sh.centroid, sh.tuples.at(local).members, sh.entVecs)
	sh.indexNode(local, sh.centroid)
}

// indexNode appends vec as tuple local's new current node: an alias of the
// tuple's first member's entity row when vec has that row's words — always
// for a one-member tuple, whose centroid is the row — and otherwise a row
// of its own. The rule depends on the bits alone, so a build, a replay, a
// compaction and a load (readSection) alias the same nodes.
func (sh *shard) indexNode(local int, vec []float32) {
	sh.index.Append(local, vec, sh.entVecs.Ref(sh.tuples.at(local).members[0]))
	sh.tuples.mut(local).node = int32(sh.index.Len() - 1)
}

// apply carries out the plan's share for this shard, s: its rows, in
// ascending order (deterministic appends), join the tuples the plan names,
// and every tuple the batch created or absorbed into is indexed once with its
// settled centroid, appended and not yet linked. The caller holds addMu;
// out[i] is written for the shard's own rows only, so shards apply
// concurrently.
//
// A tuple's member slice is shared by every copy of its tuple chunk; it is an
// append-only array under shardView's contract.
func (sh *shard) apply(s int, p *batchPlan, baseID int, out []AddResult) {
	base := sh.tuples.Len()
	sh.touched = sh.touched[:0]
	for _, i := range p.perShard[s] {
		d := &p.rows[i]
		pos := sh.entVecs.Append(p.vecs.At(i))
		sh.entIDs = append(sh.entIDs, baseID+i)
		local := d.local
		if !d.absorb {
			bt := &p.tuples[d.batch]
			local = base + bt.ord
			if bt.rows[0] == i {
				// First row of a batch-formed tuple: create it. It has the
				// tuple's smallest entity ID — rows chain in ascending order
				// and batch IDs are dense. Later rows count as absorbed at
				// their join distance, exactly as one-at-a-time ingestion
				// would report.
				sh.tuples.append(tupleState{members: []int{pos}, maxJoinDist: bt.maxJoin, minEntID: baseID + i})
				out[i] = AddResult{EntityID: baseID + i, Tuple: globalTupleID(s, local)}
				continue
			}
		}
		ts := sh.tuples.mut(local)
		ts.members = append(ts.members, pos)
		if d.absorb {
			ts.maxJoinDist = max(ts.maxJoinDist, d.dist)
			sh.touched = append(sh.touched, local)
		}
		out[i] = AddResult{EntityID: baseID + i, Tuple: globalTupleID(s, local), Absorbed: true, Distance: d.dist}
	}
	// Created tuples first, in creation order, then each touched tuple once,
	// ascending, with its recomputed centroid under the same local id: the
	// previous index entry goes stale, and every search re-ranks against
	// current centroids, so staleness only costs recall head-room until
	// compaction — not correctness.
	for local := base; local < sh.tuples.Len(); local++ {
		sh.indexCentroid(local)
	}
	slices.Sort(sh.touched)
	for _, local := range slices.Compact(sh.touched) {
		sh.indexCentroid(local)
	}
}

// ShardStats describes one shard's share of the matcher state.
type ShardStats struct {
	// Shard is the shard number (the high bits of its tuples' global IDs).
	Shard int `json:"shard"`
	// Entities is the number of entity embeddings this shard owns.
	Entities int `json:"entities"`
	// EntityBytes is the memory the shard's entity embeddings take. They
	// are kept as bitmask rows, so it depends on the data: dim/8 B of mask,
	// 4 B a nonzero and 8 B an entity (vector.SparseRows.Bytes). The data
	// arena's chunk tails, under a row a 32 KiB chunk, are in neither count.
	EntityBytes int `json:"entity_bytes"`
	// IndexBytes is the memory the shard's index node vectors take, stale
	// entries included: the words of the node rows the index stores itself
	// and 8 B a node's descriptor. A node that is its tuple's first member's
	// entity row (every one-member tuple's) adds its descriptor alone: its
	// words are counted in EntityBytes.
	IndexBytes int `json:"index_bytes"`
	// Tuples is the number of tuples homed here, singletons included.
	Tuples int `json:"tuples"`
	// Matched is the number of tuples with >= 2 members.
	Matched int `json:"matched"`
	// Singletons is the number of single-member tuples.
	Singletons int `json:"singletons"`
	// IndexSize is the number of centroid vectors in the shard's ANN index,
	// stale entries included.
	IndexSize int `json:"index_size"`
	// Live is the number of current centroids (= Tuples); IndexSize - Live
	// entries are stale leftovers of absorbed-into tuples.
	Live int `json:"live"`
	// Compactions counts how often the shard rebuilt its index to drop stale
	// centroids.
	Compactions int64 `json:"compactions"`
}

// stats computes the shard's stats from one immutable view.
func (v *shardView) stats(id int) ShardStats {
	s := ShardStats{
		Shard:       id,
		Entities:    len(v.entIDs),
		EntityBytes: v.entVecs.Bytes(),
		IndexBytes:  v.index.Vectors().Bytes(),
		Tuples:      v.tuples.Len(),
		IndexSize:   v.index.Len(),
		Live:        v.tuples.Len(),
		Compactions: v.compactions,
	}
	v.tuples.each(func(ts *tupleState) {
		if len(ts.members) >= 2 {
			s.Matched++
		} else {
			s.Singletons++
		}
	})
	return s
}

// memberIDs resolves member rows to sorted global entity IDs.
func (v *shardView) memberIDs(members []int) []int {
	ids := make([]int, len(members))
	for i, p := range members {
		ids[i] = v.entIDs[p]
	}
	sort.Ints(ids)
	return ids
}

// compactThreshold triggers an index rebuild when stale entries outnumber
// live centroids by this factor: every absorption leaves the tuple's previous
// centroid behind in the index, and past 2x the dead entries dominate both
// memory and search work.
const compactThreshold = 2

// maybeCompact rebuilds the shard's index from current centroids when the
// stale/live ratio exceeds compactThreshold, and reports how many nodes of the
// index it replaced were appended and never linked: graph work nobody does.
// The caller holds addMu. Published views keep the old index, so readers are
// never affected.
//
// The rebuild takes the replaced index's own config — the one it was built or
// saved with, whatever Options a later process passes — and is
// deterministic: the graph is a function of the vectors and their order, and
// the trigger depends only on ingest history (index entries accrue one per
// new tuple and one per centroid refresh, regardless of shard layout or any
// save/load in between), so an original matcher and its save/load twin
// compact at the same point and rebuild identical graphs. The rebuild only
// Appends, like apply: its graph is built when it is next linked.
//
// It also rebuilds the shard's data arena, where the replaced nodes' words
// would otherwise stay: the entity rows are copied word for word to a new
// one, the current centroids are indexed on it as apply indexes them
// (indexNode), and the old arena goes with the last view that reads it.
func (sh *shard) maybeCompact() (discarded int) {
	live := sh.tuples.Len()
	if live == 0 || sh.index.Len()-live <= compactThreshold*live {
		return 0
	}
	old := sh.index
	sh.entVecs = sh.entVecs.Copy()
	sh.index = hnsw.NewOn(sh.entVecs.Data(), old.Config())
	// The rebuild replaces the index but not the logical shard: keep the
	// search-effort counters monotonic across compactions.
	sh.index.CarrySearchStats(old)
	// In the dense index tuple l's node is l. Rewriting every row's node
	// dirties (and so copies) every shared tuple chunk — fine: compaction is
	// already an O(live) rebuild, and it runs rarely by construction.
	for l := 0; l < live; l++ {
		old.CopyTo(sh.centroid, int(sh.tuples.at(l).node))
		sh.indexNode(l, sh.centroid)
	}
	sh.compactions++
	return old.Unlinked()
}

// routeVec hashes a vector's bit pattern to a shard: FNV-1a over the float32
// bits, so routing is deterministic, spreads uniformly, and — embeddings
// being deterministic functions of the record text — identical records always
// land on the same shard. Near-duplicates may land elsewhere, which is fine:
// absorption searches every shard, routing only places new singletons.
func routeVec(vec []float32, nShards int) int {
	if nShards <= 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for _, f := range vec {
		b := math.Float32bits(f)
		for s := 0; s < 32; s += 8 {
			h ^= uint64(b>>s) & 0xff
			h *= 1099511628211
		}
	}
	return int(h % uint64(nShards))
}
