package multiem

import (
	"math/rand"

	"repro/internal/ann"
	"repro/internal/par"
	"repro/internal/unionfind"
	"repro/internal/vector"
)

// item is one row of a (possibly merged) table during Phase II: a candidate
// tuple of entity positions.
type item struct {
	members []int // global entity positions (rows in the pipeline's arena)
	// maxJoinDist is the largest pair distance accepted anywhere along
	// this item's merge history — the "merge path" information the paper
	// lists as future work (§VI): it survives the locality of pairwise
	// merging and yields a per-tuple confidence.
	maxJoinDist float32
}

// mergeTable is one table of the hierarchy: its items and, row for row,
// their representative embeddings as bitmask rows — what both legs of the
// two-table join read. A source table's rows are the pipeline's entity rows,
// shared on their data arena. A merged table holds each unmatched item's row
// as its words stand, shared where the merged table's data arena is the
// row's and copied word for word where it is not, and packs each merged
// item's L2-normalized member centroid.
type mergeTable struct {
	items []item
	vecs  *vector.SparseRows
}

// mergeContext carries what two-table merging needs about the whole dataset:
// the entity rows used to recompute centroids.
type mergeContext struct {
	entVecs *vector.SparseRows
	opt     *Options
	// wrapIndex, when set, decorates every index the HNSW leg builds. Tests
	// use it to observe the searches a merge issues.
	wrapIndex func(ann.Index) ann.Index
}

// The two legs of a two-table join cost, to a first order,
//
//	exact join:  |a|·|b| · exactPairNs    (one blocked pass over a×b)
//	HNSW:        (|a|+|b|) · hnswRowNs    (insert every row, then query it)
//
// and BackendAuto takes the cheaper one per table pair. Both constants come
// from one command,
//
//	go test -run '^$' -bench 'BenchmarkAblation_ANNBackend/sweep' -benchtime 1x .
//
// which times each leg alone on two Music-200 source tables of 500 to 32k
// rows (dim 256, sequential). Each row is the median of the same five runs,
// on a 2-CPU AVX-512 box:
//
//	rows a side     500    1k    2k    4k    8k   16k   32k
//	exact ns/pair   6.0   4.5   4.4   4.2   4.4   4.0   4.2
//	HNSW  µs/row    119   138   154   188   191   227   258
//
// Five runs on a second such box, which reads both legs at about 0.65× the
// first, after the join's re-check became the bitmask gather (each run
// followed by one of the tile re-check it replaced, for the middle row):
//
//	exact ns/pair   4.5   4.2   3.4   2.9   2.6   2.7   2.6
//	before          4.2   3.4   2.8   2.8   2.6   2.7   2.6
//	HNSW  µs/row     85    99   113   128   134   148   169
//
// The exact leg's median over every size and run, 2.89 ns/pair (quartiles
// 2.59–3.77) against 2.80 (2.64–3.30) before, moved within its spread, and
// that box's crossover, 2·169/2.89 ≈ 117k, is the one below.
//
// The join is about flat: it scores each pair over the A row's nonzero
// coordinates and only the few pairs that may match in full (see
// ann.MutualTopKExact), and its smallest tables pay the dimension-major copy
// of b over fewer pairs. HNSW climbs ~30 µs a doubling as the graph deepens
// and leaves cache (and by 32k rows misses 6% of the pairs the join finds).
// exactPairNs is the sweep's median and hnswRowNs its last point, the one
// nearest the crossover, which the model then puts at 2·hnswRowNs/exactPairNs
// ≈ 117k rows a side for equal tables; at 32k the join wins 4.3 s to 16.5 s,
// and extrapolating HNSW's climb the measured curves meet near 140–155k, so
// the constant errs towards the paper's ANN. Geo, Music-20/200, Shopee and
// the early levels of every hierarchy fall below the crossover; Music-2000
// and Person source tables (400k, 1M rows) stay on HNSW. The model ignores
// Options.Parallel: HNSW construction is sequential and the join is not, so
// with workers the true crossover only moves further out.
const (
	exactPairNs = 4.4
	hnswRowNs   = 258e3
)

// exactIsCheaper is the cost model behind BackendAuto.
func exactIsCheaper(na, nb int) bool {
	return float64(na)*float64(nb)*exactPairNs <= float64(na+nb)*hnswRowNs
}

// matchedPairs finds the mutual top-K pairs between two tables (Eq. 1) with
// the backend the options force or, under BackendAuto, the cost model picks.
func (mc *mergeContext) matchedPairs(a, b *vector.SparseRows, workers int) []ann.Pair {
	exact := mc.opt.Backend == BackendBrute ||
		(mc.opt.Backend == BackendAuto && exactIsCheaper(a.Len(), b.Len()))
	if exact {
		return ann.MutualTopKExact(a, b, mc.opt.K, mc.opt.M, workers)
	}
	index := func(s *vector.SparseRows) ann.Index {
		ix := ann.HNSWOverRows(s, mc.opt.HNSW)
		if mc.wrapIndex != nil {
			return mc.wrapIndex(ix)
		}
		return ix
	}
	return ann.MutualTopK(a, index(b), b, index(a), mc.opt.K, mc.opt.M, 0, workers)
}

// mergeTwoTables implements Algorithm 3: find mutual top-K entity pairs
// between tables a and b (Eq. 1), union matched items transitively, and
// emit the merged table containing combined tuples plus all unmatched items.
// workers is this call's share of the merging phase's goroutine budget.
// alone reports that no other merge runs beside this one: then the merged
// table's rows go on a's data arena, which takes one writer at a time, and
// every row a shares it keeps shared; otherwise they go on a data arena of
// the merged table's own. A centroid stored on a shared arena stays there
// until the run ends: one per union of two items at most, so fewer rows than
// the entities.
func (mc *mergeContext) mergeTwoTables(a, b mergeTable, workers int, alone bool) mergeTable {
	if len(a.items) == 0 {
		return b
	}
	if len(b.items) == 0 {
		return a
	}
	pairs := mc.matchedPairs(a.vecs, b.vecs, workers)

	// Slot id space: A occupies [0, na), B occupies [na, na+nb). Merge
	// matched slots by transitivity (Alg. 3 line 8).
	na := len(a.items)
	total := na + len(b.items)
	uf := unionfind.New(total)
	for _, p := range pairs {
		uf.Union(p.A, na+p.B)
	}
	// Merge-path provenance: the worst accepted pair distance per group,
	// indexed by root.
	groupMax := make([]float32, total)
	for _, p := range pairs {
		root := uf.Find(p.A)
		groupMax[root] = max(groupMax[root], p.Dist)
	}
	slot := func(s int) (item, vector.Ref) {
		if s < na {
			return a.items[s], a.vecs.Ref(s)
		}
		return b.items[s-na], b.vecs.Ref(s - na)
	}

	groups := uf.Sets(1)
	merged := mergeTable{items: make([]item, 0, len(groups))}
	if alone {
		merged.vecs = vector.NewSparseRowsOn(a.vecs.Data())
	} else {
		merged.vecs = vector.NewSparseRows(mc.entVecs.Dim())
	}
	centroid := make([]float32, mc.entVecs.Dim())
	for _, group := range groups {
		if len(group) == 1 {
			// Mismatched item: retained unchanged into the next
			// hierarchy (Alg. 3 line 9).
			it, row := slot(group[0])
			merged.items = append(merged.items, it)
			merged.vecs.AppendRef(row)
			continue
		}
		var members []int
		maxDist := groupMax[uf.Find(group[0])]
		for _, s := range group {
			it, _ := slot(s)
			members = append(members, it.members...)
			if it.maxJoinDist > maxDist {
				maxDist = it.maxJoinDist
			}
		}
		centroidInto(centroid, members, mc.entVecs)
		merged.vecs.Append(centroid)
		merged.items = append(merged.items, item{members: members, maxJoinDist: maxDist})
	}
	return merged
}

// hierarchicalMerge implements Algorithm 2: repeatedly pair up the current
// tables at random and merge each pair (Fig. 2b) until a single integrated
// table remains. With opt.Parallel, the pairs of one hierarchy are merged
// concurrently (§III-E, "merging in parallel"); the worker budget is split
// between the pairs in flight and the queries inside each, so a hierarchy
// never runs more than Options.workers() goroutines: many small pairs run
// side by side on one goroutine each, the last few large ones one at a time
// on all.
func (mc *mergeContext) hierarchicalMerge(tables []mergeTable) []item {
	rng := rand.New(rand.NewSource(mc.opt.Seed + 211))
	for len(tables) > 1 {
		rng.Shuffle(len(tables), func(i, j int) { tables[i], tables[j] = tables[j], tables[i] })
		nPairs := len(tables) / 2
		next := make([]mergeTable, nPairs, nPairs+1)

		budget := mc.opt.workers()
		inFlight := min(nPairs, budget)
		inner := budget / inFlight
		par.For(nPairs, inFlight, func(_, p int) {
			next[p] = mc.mergeTwoTables(tables[2*p], tables[2*p+1], inner, inFlight == 1)
		})
		if len(tables)%2 == 1 {
			// The odd table out is carried into the next hierarchy.
			next = append(next, tables[len(tables)-1])
		}
		tables = next
	}
	if len(tables) == 0 {
		return nil
	}
	return tables[0].items
}
