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
// writer keeps going, and each is one of two kinds, frozen one way per kind:
//
//   - Append-only arrays (entIDs, entVecs, and the index's vectors, ids,
//     levels and offsets): existing elements are never overwritten, and the
//     writer appends past every frozen length — in place, or into a new
//     backing array. A view clips them (slices.Clip, vector.Store.Frozen):
//     O(1), sharing the backing array.
//   - Copy-on-write tables (the tuple table, the index's link arena): rows
//     live in fixed-size chunks behind a spine, and the writer owns or shares
//     each chunk. A view takes snapshot(): an O(chunks) spine copy with no
//     ownership, which marks every writer chunk shared. The writer copies a
//     shared chunk before it mutates a row in it, and may append into a
//     shared chunk's tail, which lies past every frozen length.
//
// So a view costs O(chunks), never O(state), and the writer's next batch
// copies only the chunks it dirties.
//
// The index's node store is the only copy of the tuple centroids. A node's
// vector is immutable, so a recomputed centroid is indexed as a new node
// under the same tuple id, never written over one a view may be reading;
// tupleState.node says which node is current, and the superseded ones are
// the index's stale entries until the next compaction rebuilds it dense.
type shardView struct {
	// entIDs maps local entity row -> global entity ID. Append-only.
	entIDs []int
	// entVecs holds the embeddings of every entity owned by this shard; a
	// tuple's members index into it. Append-only.
	entVecs *vector.Store
	// tuples is the chunked tuple table (tupletable.go): the writer's copy
	// in a shard, a frozen snapshot of it in a published view.
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
	// index.Append copies it; touched collects the pre-existing tuples a
	// batch absorbed rows into.
	centroid []float32
	touched  []int
}

// view freezes the shard's current state into an immutable shardView, each
// field the one way its kind freezes (see shardView). The caller holds addMu
// and has linked the index.
func (sh *shard) view() *shardView {
	return &shardView{
		entIDs:      slices.Clip(sh.entIDs),
		entVecs:     sh.entVecs.Frozen(),
		tuples:      sh.tuples.snapshot(),
		index:       sh.index.Clone(),
		compactions: sh.compactions,
	}
}

// centroidAt resolves tuple local's current centroid: the vector of its
// current index node. On the writer's shard it is valid until the index's
// next Add.
func (v *shardView) centroidAt(local int) []float32 {
	return v.index.Vector(int(v.tuples.at(local).node))
}

// indexCentroid recomputes tuple local's centroid from its members, appends
// it as a new node under the tuple's id, and makes that node current. The
// tuple's previous node, if it had one, goes stale. The node's vector is
// readable at once; it is linked into the graph when whoever next takes a
// view of the shard calls index.Link. The caller holds addMu.
func (sh *shard) indexCentroid(local int) {
	centroidInto(sh.centroid, sh.tuples.at(local).members, sh.entVecs)
	sh.index.Append(local, sh.centroid)
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
	base := sh.tuples.len()
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
	for local := base; local < sh.tuples.len(); local++ {
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
		Tuples:      v.tuples.len(),
		IndexSize:   v.index.Len(),
		Live:        v.tuples.len(),
		Compactions: v.compactions,
	}
	v.tuples.each(func(_ int, ts *tupleState) {
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
// The rebuild takes the replaced index's own dimensionality and config — the
// ones it was built or saved with, whatever Options a later process passes —
// and starts a fresh seeded RNG stream, which is deterministic: the trigger
// depends only on ingest history (index entries accrue one per new tuple and
// one per centroid refresh, regardless of shard layout or any save/load in
// between), so an original matcher and its save/load twin compact at the same
// point and rebuild identical graphs. The rebuild only Appends, like apply:
// its graph is built when it is next linked.
func (sh *shard) maybeCompact() (discarded int) {
	live := sh.tuples.len()
	if live == 0 || sh.index.Len()-live <= compactThreshold*live {
		return 0
	}
	ix := hnsw.New(sh.index.Dim(), sh.index.Config())
	// The rebuild replaces the index but not the logical shard: keep the
	// search-effort counters monotonic across compactions.
	ix.CarrySearchStats(sh.index)
	for l := 0; l < live; l++ {
		ix.Append(l, sh.centroidAt(l))
	}
	// In the dense index tuple l's node is l. Rewriting every row's node
	// dirties (and so copies) every shared tuple chunk — fine: compaction is
	// already an O(live) rebuild, and it runs rarely by construction.
	for l := 0; l < live; l++ {
		sh.tuples.mut(l).node = int32(l)
	}
	discarded = sh.index.Unlinked()
	sh.index = ix
	sh.compactions++
	return discarded
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

// shardHNSWConfig derives the HNSW configuration for one shard: a per-shard
// seed offset so the shards' level-sampling RNG streams are distinct. Each
// stream replays independently through the index's own Save/Load, which is
// what keeps post-load AddRecords deterministic.
func (m *Matcher) shardHNSWConfig(shardID int) hnsw.Config {
	cfg := m.opt.HNSW
	if cfg.Seed == 0 {
		cfg.Seed = 1 // mirror hnsw's default so the offset below is stable
	}
	cfg.Seed += int64(shardID)
	return cfg
}
