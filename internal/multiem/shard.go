package multiem

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

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

// shard is one slice of the matcher's writer-side state, guarded by the
// matcher's ingest lock (addMu): only AddRecords and recovery replay touch
// it. Readers never see a shard directly — they read the immutable shardView
// the writer last published for it.
//
// Every structure here is built so a published view stays valid while the
// writer keeps going: entIDs and entVecs are append-only, the chunked tuple
// table copies a view-shared chunk before a batch mutates into it, and the
// live index is mutable only on the writer side (views get a frozen Clone
// sharing its link chunks the same way).
//
// The index's node store is the only copy of the tuple centroids. A node's
// vector is immutable, so a recomputed centroid is indexed as a new node
// under the same tuple id, never written over one a view may be reading;
// tupleState.node says which node is current, and the superseded ones are
// the index's stale entries until the next compaction rebuilds it dense.
type shard struct {
	// entIDs maps local entity row -> global entity ID. Append-only.
	entIDs []int
	// entVecs holds the embeddings of every entity owned by this shard; a
	// tuple's members index into it. Append-only.
	entVecs *vector.Store
	// tuples is the writer's working copy of the chunked tuple table
	// (tupletable.go). A batch mutates rows copy-on-write at chunk
	// granularity: a chunk any published view shares is copied before its
	// first mutation, so the rows inside any published view are never
	// written again, and clean chunks are shared across epochs.
	tuples *tupleTable
	// index is the live HNSW index over tuple centroids, ids = local tuple
	// indexes, mutated incrementally per batch; views receive read-only
	// clones of it. Append-only between compactions.
	index *hnsw.Index
	// centroid is apply-time scratch (dim floats): a settled centroid is
	// computed here and handed to index.Add, which copies it.
	centroid []float32
	// compactions counts stale-centroid index rebuilds (persisted, so stats
	// survive a save/load round-trip).
	compactions int64
}

// shardView is the immutable serving state of one shard. A view is built by
// the writer after a batch is fully applied and is never mutated afterwards:
// the slices and arenas it holds are append-only snapshots (safe to share
// with the still-growing writer state) and the index is a frozen clone, which
// pins the centroid store at the epoch's length.
// Match, Stats, Tuples, and Snapshot all read shardViews exclusively, which
// is why none of them takes a lock.
type shardView struct {
	entIDs      []int
	entVecs     *vector.Store
	tuples      tupleView
	index       *hnsw.Index
	compactions int64
}

// view freezes the shard's current writer state into an immutable shardView.
// The caller holds addMu. The tuple table and the index's link arena are
// snapshotted at chunk granularity (O(chunks) spine copies that mark every
// chunk shared), so building a view costs O(state/chunkSize), not O(state) —
// the writer's next batch copies only the chunks it actually dirties.
func (sh *shard) view() *shardView {
	return &shardView{
		entIDs:      sh.entIDs[:len(sh.entIDs):len(sh.entIDs)],
		entVecs:     sh.entVecs.Frozen(),
		tuples:      sh.tuples.snapshot(),
		index:       sh.index.Clone(),
		compactions: sh.compactions,
	}
}

// centroidAt resolves tuple local's current centroid: the vector of its
// current index node, valid until the index's next Add. The caller holds
// addMu.
func (sh *shard) centroidAt(local int) []float32 {
	return sh.index.Vector(int(sh.tuples.at(local).node))
}

// centroidAt resolves tuple local's centroid as of this view's epoch.
func (v *shardView) centroidAt(local int) []float32 {
	return v.index.Vector(int(v.tuples.at(local).node))
}

// indexCentroid recomputes tuple local's centroid from its members, indexes
// it as a new node under the tuple's id, and makes that node current. The
// tuple's previous node, if it had one, goes stale. The caller holds addMu.
func (sh *shard) indexCentroid(local int) error {
	centroidInto(sh.centroid, sh.tuples.at(local).members, sh.entVecs)
	if err := sh.index.Add(local, sh.centroid); err != nil {
		return err
	}
	sh.tuples.mut(local).node = int32(sh.index.Len() - 1)
	return nil
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
// stale/live ratio exceeds compactThreshold. The caller holds addMu. The
// rebuild fills a fresh index and swaps it in only on success: published
// views keep the old one, so readers are never affected, and a failed
// rebuild leaves the shard serving from its previous state.
//
// The rebuilt index starts a fresh seeded RNG stream, which is deterministic:
// the trigger depends only on ingest history (index entries accrue one per
// new tuple and one per centroid refresh, regardless of shard layout or any
// save/load in between), so an original matcher and its save/load twin
// compact at the same point and rebuild identical graphs.
func (sh *shard) maybeCompact(cfg hnsw.Config, dim int) error {
	live := sh.tuples.len()
	if live == 0 || sh.index.Len()-live <= compactThreshold*live {
		return nil
	}
	ix := hnsw.New(dim, cfg)
	// The rebuild replaces the index but not the logical shard: keep the
	// search-effort counters monotonic across compactions.
	ix.CarrySearchStats(sh.index)
	for l := 0; l < live; l++ {
		if err := ix.Add(l, sh.centroidAt(l)); err != nil {
			return fmt.Errorf("multiem: shard compaction: %w", err)
		}
	}
	// In the dense index tuple l's node is l. Rewriting every row's node
	// dirties (and so copies) every shared tuple chunk — fine: compaction is
	// already an O(live) rebuild, and it runs rarely by construction.
	for l := 0; l < live; l++ {
		sh.tuples.mut(l).node = int32(l)
	}
	sh.index = ix
	sh.compactions++
	return nil
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

// shardHNSWConfig derives the HNSW configuration for one shard: the merge
// metric, and a per-shard seed offset so the shards' level-sampling RNG
// streams are distinct. Each stream replays independently through the index's
// own Save/Load, which is what keeps post-load AddRecords deterministic.
func (m *Matcher) shardHNSWConfig(shardID int) hnsw.Config {
	cfg := m.opt.HNSW
	cfg.Metric = m.opt.MergeMetric
	if cfg.Seed == 0 {
		cfg.Seed = 1 // mirror hnsw's default so the offset below is stable
	}
	cfg.Seed += int64(shardID)
	return cfg
}

// parallelFor runs f(0..n-1) on up to workers goroutines. Iterations must be
// independent; with workers <= 1 it degenerates to a plain loop.
func parallelFor(workers, n int, f func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
