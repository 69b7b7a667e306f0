package multiem

import (
	"cmp"
	"fmt"
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

// shardView is one shard's state — its entities, its tuples, the graph that
// finds them and their centroids — and the only type that holds them: a
// published view is one that is never written again, the writer's shard one
// it may mutate.
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
//     rows (vector.RowData: mask and value words) under three descriptor
//     tables, entVecs's, the index's node table and the centroid table
//     (vector.SparseRows). A view takes a snapshot of each — one of the data
//     arena, which the descriptor tables share — which clips the spine in
//     O(1) and marks every chunk and the spine shared. Appends write past
//     every frozen length, in place; a write to an existing row (a tuple's
//     centroid row number, a node's links — never a row of the data arena)
//     copies its chunk first, and the batch's first such write copies the
//     spine.
//
// So a view copies no row and no spine (it clears one ownership flag a
// chunk), and the writer's next batch copies only the chunks it dirties and
// at most one spine a table.
//
// A tuple's graph nodes never change and never go stale. A tuple gets one
// when it is created, its first centroid, and one more for each row absorbed
// into it that lies farther than extraNodeFactor·M from every node it had,
// that row itself; every node carries the tuple's local index as its id. Its
// current centroid is a row of the centroid table, tupleState.cent: an
// absorption appends the recomputed centroid there and links nothing, and
// the row it supersedes is dead until a reclamation (maybeReclaim) copies
// the live rows to a fresh arena. A row is shared where it has the words of
// the row it derives from (nodeAlias on a load, movedAlias on a
// reclamation): a node that is its tuple's first centroid is the first
// member's entity row where it has that row's words — every one-member
// tuple's is — an absorbed node is that member's entity row, and a centroid
// row is its tuple's last node's row where it has that row's words — a
// tuple's first centroid always.
type shardView struct {
	// entIDs maps local entity row -> global entity ID. Append-only.
	entIDs []int
	// entVecs holds the embeddings of every entity owned by this shard, as
	// bitmask rows on the shard's data arena (entVecs.Data()), which the
	// node and centroid rows share; a tuple's members index into it. The
	// centroid sums read it, and the walks through the nodes that alias its
	// rows. Append-only.
	entVecs *vector.SparseRows
	// tuples is the tuple table (tupletable.go): the writer's copy in a
	// shard, a snapshot of it in a published view.
	tuples tupleTable
	// index is the HNSW graph over the tuples' nodes, ids = local tuple
	// indexes. Append-only.
	index *hnsw.Index
	// cents is the centroid table: row tupleState.cent is the tuple's
	// current centroid, and every other row is dead. Append-only between
	// reclamations.
	cents *vector.SparseRows
	// dead counts the words of the dead centroid rows cents stored itself.
	dead int
}

// extraNodeFactor scales M, the merge threshold (the file's, for a loaded
// matcher), into the distance beyond which an absorbed row becomes one more
// graph node of its tuple: a row no node of the tuple lies within 0.8·M of.
// Sized on serve_read's Match recall against the graph of one node per
// centroid version this replaced: with no extra nodes −0.018, at 1.0·M
// −0.005 to −0.010, at 0.7–0.8·M +0.009 to +0.014.
const extraNodeFactor = 0.8

// shard is the writer's side of one shard: the mutable shardView plus the
// graph bookkeeping and the scratch an apply reuses from batch to batch. It
// is guarded by the matcher's ingest lock (addMu) — only ingest and recovery
// replay touch it — and readers never see it, only the views taken of it.
type shard struct {
	shardView
	// next chains each tuple's nodes in node order, from tupleState.node:
	// next[n] is the node after node n, or -1 after the last. Only the
	// writer reads it.
	next []int32
	// centroid (dim floats) is where a centroid is computed before it is
	// stored; touched collects the pre-existing tuples a batch absorbed rows
	// into; nodes and dists hold one tuple's nodes and a row's distances to
	// them.
	centroid []float32
	touched  []int
	nodes    []int32
	dists    []float32
}

// view freezes the shard's current state into an immutable shardView (see
// shardView). The caller holds addMu and has linked the index.
func (sh *shard) view() *shardView {
	data := sh.entVecs.Data().Frozen()
	return &shardView{
		entIDs:  slices.Clip(sh.entIDs),
		entVecs: sh.entVecs.FrozenOn(data),
		tuples:  tupleTable{sh.tuples.Snapshot()},
		index:   sh.index.CloneOn(data),
		cents:   sh.cents.FrozenOn(data),
		dead:    sh.dead,
	}
}

// nodesOf returns the nodes of the tuple whose first node is first, in node
// order, in the shard's scratch.
func (sh *shard) nodesOf(first int32) []int32 {
	sh.nodes = sh.nodes[:0]
	for n := first; n >= 0; n = sh.next[n] {
		sh.nodes = append(sh.nodes, n)
	}
	return sh.nodes
}

// addNode appends vec as a node of tuple local, the row r names where it has
// vec's words, after the tuple's last node last (-1 for its first).
func (sh *shard) addNode(local int, vec []float32, r vector.Ref, last int32) int32 {
	n := int32(sh.index.Len())
	sh.index.Append(local, vec, r)
	sh.next = append(sh.next, -1)
	if last >= 0 {
		sh.next[last] = n
	}
	return n
}

// addTuple indexes tuple local, just created: its centroid becomes its first
// node and its centroid row. The node's vector is readable at once; it is
// linked into the graph when whoever next takes a view of the shard calls
// index.Link. The caller holds addMu.
func (sh *shard) addTuple(local int) {
	ts := sh.tuples.mut(local)
	centroidInto(sh.centroid, ts.members, sh.entVecs)
	ts.node = sh.addNode(local, sh.centroid, sh.entVecs.Ref(ts.members[0]), -1)
	ts.cent = int32(sh.cents.AppendRef(sh.index.Vectors().Ref(int(ts.node))))
}

// absorbNode makes the row at entity position pos, embedded as q and just
// absorbed into tuple local, one more node of the tuple when every node the
// tuple has lies farther than near from it — one gather over the tuple's
// nodes, so a replay decides it as the live batch did, without searching.
func (sh *shard) absorbNode(local, pos int, q []float32, near float32) {
	nodes := sh.nodesOf(sh.tuples.at(local).node)
	sh.dists = slices.Grow(sh.dists[:0], len(nodes))[:len(nodes)]
	sh.index.Dists(q, nodes, sh.dists)
	for _, d := range sh.dists {
		if !(d > near) {
			return
		}
	}
	sh.addNode(local, q, sh.entVecs.Ref(pos), nodes[len(nodes)-1])
}

// recentre recomputes the centroid of tuple local, absorbed into, and makes
// it the tuple's centroid row: the tuple's last node's row where it has that
// row's words, a row of its own otherwise. The row it supersedes is dead;
// its words count towards a reclamation where it was not a node's.
func (sh *shard) recentre(local int) {
	ts := sh.tuples.mut(local)
	centroidInto(sh.centroid, ts.members, sh.entVecs)
	nodes, old := sh.nodesOf(ts.node), sh.cents.Ref(int(ts.cent))
	if !slices.ContainsFunc(nodes, func(n int32) bool { return sh.index.Vectors().Ref(int(n)) == old }) {
		sh.dead += sh.cents.Words(int(ts.cent))
	}
	ts.cent = int32(sh.cents.AppendShared(sh.centroid, sh.index.Vectors().Ref(int(nodes[len(nodes)-1]))))
}

// apply carries out the plan's share for this shard, s: its rows, in
// ascending order (deterministic appends), join the tuples the plan names.
// An absorbed row far from every node of its tuple becomes one more node of
// it (absorbNode, at extraNodeFactor·mergeM); every tuple the batch created
// gets its first node, and every one it absorbed into its recomputed
// centroid row, once each. Nodes are appended, not yet linked. The caller
// holds addMu; out[i] is written for the shard's own rows only, so shards
// apply concurrently.
//
// A tuple's member slice is shared by every copy of its tuple chunk; it is an
// append-only array under shardView's contract.
func (sh *shard) apply(s int, p *batchPlan, baseID int, out []AddResult, mergeM float32) {
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
			sh.absorbNode(local, pos, p.vecs.At(i), extraNodeFactor*mergeM)
		}
		out[i] = AddResult{EntityID: baseID + i, Tuple: globalTupleID(s, local), Absorbed: true, Distance: d.dist}
	}
	// Created tuples first, in creation order, then each touched tuple once,
	// ascending, with its recomputed centroid under the same local id.
	for local := base; local < sh.tuples.Len(); local++ {
		sh.addTuple(local)
	}
	slices.Sort(sh.touched)
	for _, local := range slices.Compact(sh.touched) {
		sh.recentre(local)
	}
	sh.maybeReclaim()
}

// reclaimShare sets when a shard reclaims its dead centroid rows: once their
// words exceed 1/reclaimShare of the live words. So the arena holds at most
// that share of dead words, and a reclamation, which copies the live words,
// costs at most reclaimShare words copied per dead word. A rule of dead
// against all live words never fires under absorption-heavy ingest: each
// absorbed row adds an entity row about as large as the centroid row it
// kills.
const reclaimShare = 8

// maybeReclaim copies the shard's live rows — its entity rows, node rows and
// current centroid rows — to a fresh data arena once the dead centroid rows'
// words exceed 1/reclaimShare of the live words. Each node shares the copy
// of the entity row it shared and stores its own words where it did
// (movedAlias), and each centroid row is its tuple's last node's where it has
// that row's words, the centroid rows in tuple order: the rows a load of the
// state's Save stores. Node numbers, ids and links stay: nothing is
// relinked, and no decision, distance or Save byte moves. Published views
// keep the old arena, so readers are never affected. The trigger counts the
// dead rows since the shard's last reclamation or load, so a replay from the
// same base reclaims where the primary did, and a matcher loaded from a
// snapshot, which starts with none, at other batches — which changes no
// decision and no Save byte either. The caller holds addMu.
func (sh *shard) maybeReclaim() {
	live := sh.entVecs.OwnWords() + sh.index.Vectors().OwnWords() + sh.cents.OwnWords() - sh.dead
	if sh.dead*reclaimShare <= live {
		return
	}
	ents := sh.entVecs.Copy()
	sh.index.MoveOn(ents.Data(), sh.movedAlias(ents))
	picks := make([]int32, sh.tuples.Len())
	for l := range picks {
		picks[l] = sh.tuples.at(l).cent
	}
	sh.cents = sh.cents.CopyOn(ents.Data(), picks, sh.centAlias())
	// Rewriting every tuple's row dirties (and so copies) every shared
	// tuple chunk, which a reclamation pays once for at least as many
	// absorptions.
	for l := range picks {
		sh.tuples.mut(l).cent = int32(l)
	}
	sh.entVecs, sh.dead = ents, 0
}

// movedAlias is a reclamation's rule for which row of ents, the entity rows'
// copy, a node row is, given in node order: the copy of the entity row the
// node shares now, found by its word offset — entity rows store their own
// words, in position order, so their offsets ascend — and none for a node
// that stores its own words. So a reclamation costs a binary search a node,
// whatever its tuple's size, and keeps every node's sharing as it was.
func (sh *shard) movedAlias(ents *vector.SparseRows) func(node int, w []uint32) vector.Ref {
	nodes := sh.index.Vectors() // the rows being moved
	return func(node int, _ []uint32) vector.Ref {
		at := nodes.Offset(node)
		if p, ok := sort.Find(sh.entVecs.Len(), func(i int) int { return cmp.Compare(at, sh.entVecs.Offset(i)) }); ok {
			return ents.Ref(p)
		}
		return vector.Ref{}
	}
}

// nodeAlias is a load's rule for which entity row of ents a node row is,
// given in node order (vector.SparseRows.Load's alias): a tuple's first node
// is its first member's row where it has that row's words, and each later
// node the first member's row past the previous match with the node's words.
// A node the rule finds no row for — a multi-member centroid — stores its
// own. A live ingest shares exactly these rows: an absorbed node is its
// member's row, and members and nodes are appended in the same order.
func (sh *shard) nodeAlias(ents *vector.SparseRows) func(id int, w []uint32) vector.Ref {
	from := make([]int32, sh.tuples.Len()) // the member the tuple's next node scans from; 0 before its first
	return func(id int, w []uint32) vector.Ref {
		if id < 0 || id >= len(from) {
			return vector.Ref{} // a load refuses the id
		}
		members := sh.tuples.at(id).members
		if from[id] == 0 {
			from[id] = 1
			return ents.Ref(members[0])
		}
		for j := int(from[id]); j < len(members); j++ {
			if r := ents.Ref(members[j]); r.Holds(w) {
				from[id] = int32(j + 1)
				return r
			}
		}
		return vector.Ref{}
	}
}

// centAlias is the rule for which row a tuple's centroid row is, given in
// tuple order: its last node's, where it has that row's words.
func (sh *shard) centAlias() func(l int, w []uint32) vector.Ref {
	return func(l int, _ []uint32) vector.Ref {
		nodes := sh.nodesOf(sh.tuples.at(l).node)
		return sh.index.Vectors().Ref(int(nodes[len(nodes)-1]))
	}
}

// chainNodes rebuilds the writer's node bookkeeping from the index's ids —
// every tuple's first node and the chain through the rest — after a load,
// and reports a node naming no tuple or a tuple with no node.
func (sh *shard) chainNodes() error {
	n := sh.tuples.Len()
	last := make([]int32, n)
	for l := range last {
		last[l] = -1
	}
	ids := sh.index.IDs()
	sh.next = make([]int32, len(ids))
	for node, id := range ids {
		if id < 0 || id >= n {
			return fmt.Errorf("index references tuple %d, have %d tuples", id, n)
		}
		sh.next[node] = -1
		if p := last[id]; p >= 0 {
			sh.next[p] = int32(node)
		} else {
			sh.tuples.mut(id).node = int32(node)
		}
		last[id] = int32(node)
	}
	for l, p := range last {
		if p < 0 {
			return fmt.Errorf("tuple %d has no index entry", l)
		}
	}
	return nil
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
	// IndexBytes is the memory the shard's graph nodes and current
	// centroids take: the words of the node and centroid rows stored apart
	// from an entity row (a first centroid of several members, a centroid
	// moved by an absorption) and 8 B a row's descriptor. A node that is an
	// entity row (every one-member tuple's, every absorbed node), and a
	// centroid row that is its tuple's last node's, add their descriptor
	// alone. The dead centroid rows a reclamation has not dropped yet are
	// in no count: their words are at most an eighth of the live words
	// (reclaimShare).
	IndexBytes int `json:"index_bytes"`
	// Tuples is the number of tuples homed here, singletons included.
	Tuples int `json:"tuples"`
	// Matched is the number of tuples with >= 2 members.
	Matched int `json:"matched"`
	// Singletons is the number of single-member tuples.
	Singletons int `json:"singletons"`
	// IndexSize is the number of nodes in the shard's graph: one a tuple,
	// and one more for each row absorbed far from every node its tuple had.
	IndexSize int `json:"index_size"`
}

// stats computes the shard's stats from one immutable view.
func (v *shardView) stats(id int) ShardStats {
	deadRows := v.cents.Len() - v.tuples.Len()
	s := ShardStats{
		Shard:       id,
		Entities:    len(v.entIDs),
		EntityBytes: v.entVecs.Bytes(),
		IndexBytes:  v.index.Vectors().Bytes() + v.cents.Bytes() - 4*v.dead - 8*deadRows,
		Tuples:      v.tuples.Len(),
		IndexSize:   v.index.Len(),
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
