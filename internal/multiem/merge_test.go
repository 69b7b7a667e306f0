package multiem

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/ann"
	"repro/internal/vector"
)

func unitv(vs ...float32) []float32 { return vector.Normalize(vs) }

// rowsOf packs test fixture rows as the bitmask rows the pipeline carries.
func rowsOf(entVecs [][]float32) *vector.SparseRows {
	if len(entVecs) == 0 {
		return vector.NewSparseRows(2)
	}
	rows := vector.NewSparseRows(len(entVecs[0]))
	for _, v := range entVecs {
		rows.Append(v)
	}
	return rows
}

func mcFor(t *testing.T, opt Options, entVecs [][]float32) *mergeContext {
	t.Helper()
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	return &mergeContext{entVecs: rowsOf(entVecs), opt: &opt}
}

// singleItems is a source table as the pipeline builds one: one
// single-member item per position, its entity row shared alongside.
func singleItems(mc *mergeContext, positions ...int) mergeTable {
	t := mergeTable{items: make([]item, len(positions)), vecs: vector.NewSparseRowsOn(mc.entVecs.Data())}
	for i, p := range positions {
		t.items[i] = item{members: []int{p}}
		t.vecs.AppendRef(mc.entVecs.Ref(p))
	}
	return t
}

func TestMergeTwoTablesEmptySides(t *testing.T) {
	entVecs := [][]float32{unitv(1, 0)}
	mc := mcFor(t, DefaultOptions(), entVecs)
	a := singleItems(mc, 0)
	got := mc.mergeTwoTables(a, mergeTable{}, 1, true)
	if len(got.items) != 1 || got.items[0].members[0] != 0 {
		t.Fatalf("empty B must return A unchanged: %+v", got)
	}
	got = mc.mergeTwoTables(mergeTable{}, a, 1, true)
	if len(got.items) != 1 {
		t.Fatalf("empty A must return B unchanged: %+v", got)
	}
}

func TestMergeTwoTablesMatchesClosePairs(t *testing.T) {
	// Entities 0/2 nearly identical across tables; 1/3 nearly identical;
	// cross pairs orthogonal.
	entVecs := [][]float32{
		unitv(1, 0, 0), unitv(0, 0, 1),
		unitv(0.99, 0.01, 0), unitv(0, 0.01, 0.99),
	}
	opt := DefaultOptions()
	opt.M = 0.3
	opt.Backend = BackendBrute
	mc := mcFor(t, opt, entVecs)
	a := singleItems(mc, 0, 1)
	b := singleItems(mc, 2, 3)
	merged := mc.mergeTwoTables(a, b, 1, true)
	if len(merged.items) != 2 {
		t.Fatalf("want 2 merged items, got %d: %+v", len(merged.items), merged.items)
	}
	for _, it := range merged.items {
		if len(it.members) != 2 {
			t.Fatalf("each item must hold a matched pair: %+v", merged.items)
		}
	}
}

func TestMergeTwoTablesRespectsThreshold(t *testing.T) {
	entVecs := [][]float32{unitv(1, 0), unitv(0, 1)}
	opt := DefaultOptions()
	opt.M = 0.2 // orthogonal vectors are at distance 1.0
	opt.Backend = BackendBrute
	mc := mcFor(t, opt, entVecs)
	merged := mc.mergeTwoTables(singleItems(mc, 0), singleItems(mc, 1), 1, true)
	if len(merged.items) != 2 {
		t.Fatalf("distant items must stay separate: %+v", merged.items)
	}
}

func TestMergedTableRowsStayAligned(t *testing.T) {
	// Row r of a merged table is item r's representative: an unmatched
	// item's own row, carried over word for word, or a merged item's member
	// centroid. A merge that runs alone stores them on its first table's
	// data arena, the entity rows' here, and shares every unmatched row
	// there; one beside others stores them on an arena of its own.
	entVecs := [][]float32{unitv(1, 0, 0), unitv(0, 1, 0), unitv(0.99, 0.01, 0), unitv(0, 0, 1)}
	opt := DefaultOptions()
	opt.M = 0.2
	mc := mcFor(t, opt, entVecs)
	for _, alone := range []bool{true, false} {
		merged := mc.mergeTwoTables(singleItems(mc, 0, 1), singleItems(mc, 2, 3), 1, alone)
		if len(merged.items) != 3 || merged.vecs.Len() != 3 {
			t.Fatalf("want 3 aligned rows, got %d items and %d vectors", len(merged.items), merged.vecs.Len())
		}
		if on := merged.vecs.Data() == mc.entVecs.Data(); on != alone {
			t.Fatalf("alone=%v: merged table on the entity rows' arena: %v", alone, on)
		}
		got, want := make([]float32, 3), make([]float32, 3)
		for r, it := range merged.items {
			centroidInto(want, it.members, mc.entVecs)
			merged.vecs.CopyTo(got, r)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("alone=%v: row %d (members %v) holds %v, want %v", alone, r, it.members, got, want)
			}
			if len(it.members) == 1 && alone && merged.vecs.Offset(r) != mc.entVecs.Offset(it.members[0]) {
				t.Fatalf("row %d (members %v) does not share its entity row", r, it.members)
			}
		}
	}
}

func TestMergedCentroidIsUnitNorm(t *testing.T) {
	entVecs := [][]float32{unitv(1, 0, 0), unitv(0.99, 0.01, 0)}
	opt := DefaultOptions()
	opt.M = 0.3
	opt.Backend = BackendBrute
	mc := mcFor(t, opt, entVecs)
	merged := mc.mergeTwoTables(singleItems(mc, 0), singleItems(mc, 1), 1, true)
	if len(merged.items) != 1 || len(merged.items[0].members) != 2 {
		t.Fatalf("want one merged pair, got %+v", merged.items)
	}
	c := make([]float32, 3)
	merged.vecs.CopyTo(c, 0)
	if n := vector.Norm(c); n < 0.999 || n > 1.001 {
		t.Fatalf("centroid norm = %v", n)
	}
	// Must lie between the two inputs.
	if vector.Dot(c, entVecs[0]) < 0.5 || vector.Dot(c, entVecs[1]) < 0.5 {
		t.Fatal("centroid must be between its members")
	}
}

// The planner is the cost model and nothing else: exact below the crossover,
// HNSW above it, decided from the two table sizes.
func TestPlannerCrossover(t *testing.T) {
	for _, c := range []struct {
		na, nb int
		exact  bool
	}{
		{1, 1, true},
		{800, 800, true},              // Music-20 source tables
		{40_000, 40_000, true},        // Music-200 source tables
		{400_000, 400_000, false},     // Music-2000
		{1_000_000, 1_000_000, false}, // Person
		{1_000_000, 10, true},         // a sliver against a large table is one cheap scan
	} {
		if got := exactIsCheaper(c.na, c.nb); got != c.exact {
			t.Errorf("exactIsCheaper(%d, %d) = %v, want %v", c.na, c.nb, got, c.exact)
		}
	}
	// Equal tables cross over at 2·hnswRowNs/exactPairNs rows a side.
	cross := int(math.Round(2 * hnswRowNs / exactPairNs))
	if !exactIsCheaper(cross-1, cross-1) || exactIsCheaper(cross+1, cross+1) {
		t.Errorf("equal tables must cross over at %d rows a side", cross)
	}
}

// randomTables builds n source tables of rows random unit vectors each.
func randomTables(n, rows, dim int) (tables []mergeTable, entVecs *vector.SparseRows) {
	rng := rand.New(rand.NewSource(int64(n*1000 + rows)))
	entVecs = vector.NewSparseRows(dim)
	v := make([]float32, dim)
	for i := 0; i < n*rows; i++ {
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		entVecs.Append(vector.Normalize(v))
	}
	for t := 0; t < n; t++ {
		items := make([]item, rows)
		vecs := vector.NewSparseRowsOn(entVecs.Data())
		for r := range items {
			items[r] = item{members: []int{t*rows + r}}
			vecs.AppendRef(entVecs.Ref(t*rows + r))
		}
		tables = append(tables, mergeTable{items: items, vecs: vecs})
	}
	return tables, entVecs
}

// countingIndex records how many Search calls are in flight at once.
type countingIndex struct {
	ann.Index
	active, peak *atomic.Int32
}

func (c countingIndex) Search(q []float32, k, ef int) []vector.Neighbor {
	n := c.active.Add(1)
	for {
		p := c.peak.Load()
		if n <= p || c.peak.CompareAndSwap(p, n) {
			break
		}
	}
	runtime.Gosched() // let the other workers overlap with this call
	defer c.active.Add(-1)
	return c.Index.Search(q, k, ef)
}

// Parallel merging splits one budget between the table pairs in flight and
// the workers inside each: however many pairs a hierarchy has, no more than
// Options.Workers searches may ever run at once. (Before the split, every
// pair in flight fanned out over the whole budget again: workers².)
func TestParallelMergeStaysWithinWorkerBudget(t *testing.T) {
	for _, nTables := range []int{2, 5, 8} {
		for _, workers := range []int{1, 2, 3, 5} {
			tables, entVecs := randomTables(nTables, 60, 8)
			opt := DefaultOptions()
			opt.Backend = BackendHNSW
			opt.Parallel = true
			opt.Workers = workers
			var active, peak atomic.Int32
			mc := &mergeContext{entVecs: entVecs, opt: &opt, wrapIndex: func(ix ann.Index) ann.Index {
				return countingIndex{ix, &active, &peak}
			}}
			mc.hierarchicalMerge(tables)
			if got := int(peak.Load()); got == 0 || got > workers {
				t.Errorf("%d tables, Workers=%d: peak of %d concurrent searches", nTables, workers, got)
			}
		}
	}
}

// The budget split hands the exact join its worker count too; its result
// must not depend on it, nor on how many pairs ran side by side.
func TestExactMergeIndependentOfWorkers(t *testing.T) {
	var want []item
	for _, workers := range []int{0, 2, 7} {
		tables, entVecs := randomTables(6, 50, 8)
		opt := DefaultOptions()
		opt.M = 1.2 // random vectors: loose enough that many pairs merge
		opt.Parallel = workers > 0
		opt.Workers = workers
		mc := &mergeContext{entVecs: entVecs, opt: &opt}
		got := mc.hierarchicalMerge(tables)
		if want == nil {
			want = got
			if len(want) == 6*50 {
				t.Fatal("sanity: nothing merged")
			}
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("Workers=%d changes the merged table", workers)
		}
	}
}

func TestHierarchicalMergeSingleTable(t *testing.T) {
	entVecs := [][]float32{unitv(1, 0)}
	mc := mcFor(t, DefaultOptions(), entVecs)
	got := mc.hierarchicalMerge([]mergeTable{singleItems(mc, 0)})
	if len(got) != 1 {
		t.Fatalf("single table passes through: %+v", got)
	}
}

func TestHierarchicalMergeNoTables(t *testing.T) {
	mc := mcFor(t, DefaultOptions(), nil)
	got := mc.hierarchicalMerge(nil)
	if got != nil {
		t.Fatalf("no tables -> nil, got %+v", got)
	}
}

func TestHierarchicalMergeOddTableCount(t *testing.T) {
	// Three tables, one entity each, all identical: after two hierarchies
	// everything must end in one tuple of three.
	entVecs := [][]float32{unitv(1, 0), unitv(1, 0), unitv(1, 0)}
	opt := DefaultOptions()
	opt.M = 0.3
	opt.Backend = BackendBrute
	mc := mcFor(t, opt, entVecs)
	tables := []mergeTable{
		singleItems(mc, 0),
		singleItems(mc, 1),
		singleItems(mc, 2),
	}
	got := mc.hierarchicalMerge(tables)
	if len(got) != 1 || len(got[0].members) != 3 {
		t.Fatalf("all three copies must merge: %+v", got)
	}
}

func TestTransitivityThroughHierarchies(t *testing.T) {
	// a≈b and b≈c but a and c are (slightly) farther: transitivity via
	// union-find must still put all three together when a-b and b-c both
	// pass the threshold within one merge.
	a := unitv(1, 0, 0)
	b := unitv(0.95, 0.31, 0)
	c := unitv(0.81, 0.59, 0)
	entVecs := [][]float32{a, b, c}
	opt := DefaultOptions()
	opt.M = 0.1 // a-b ≈ 0.05, b-c ≈ 0.05, a-c ≈ 0.19
	opt.K = 2
	opt.Backend = BackendBrute
	mc := mcFor(t, opt, entVecs)
	// Put a and c in one table, b alone in the other, so both pairs are
	// evaluated in a single two-table merge.
	merged := mc.mergeTwoTables(singleItems(mc, 0, 2), singleItems(mc, 1), 1, true)
	if len(merged.items) != 1 || len(merged.items[0].members) != 3 {
		t.Fatalf("transitive closure must group all three: %+v", merged.items)
	}
}

func TestPruneItemsRemovesOutlier(t *testing.T) {
	entVecs := [][]float32{
		unitv(1, 0, 0), unitv(0.99, 0.14, 0), unitv(0, 0, 1),
	}
	opt := DefaultOptions()
	opt.Eps = 0.6
	items := []item{{members: []int{0, 1, 2}}}
	tuples, confs := pruneItems(items, rowsOf(entVecs), &opt)
	if len(confs) != len(tuples) {
		t.Fatalf("confidences misaligned: %d vs %d", len(confs), len(tuples))
	}
	if len(tuples) != 1 || len(tuples[0]) != 2 {
		t.Fatalf("outlier must be pruned: %v", tuples)
	}
}

func TestPruneItemsDropsShrunkenTuples(t *testing.T) {
	entVecs := [][]float32{unitv(1, 0), unitv(0, 1)}
	opt := DefaultOptions()
	opt.Eps = 0.2
	items := []item{{members: []int{0, 1}}}
	if got, _ := pruneItems(items, rowsOf(entVecs), &opt); got != nil {
		t.Fatalf("tuple shrinking below 2 must disappear: %v", got)
	}
}

// Parallel pruning hands tuples to workers in blocks; the tuples it keeps,
// their order and their confidences must be the sequential run's exactly, at
// any worker count, with and without the pruning rules.
func TestPruneItemsParallelMatchesSequential(t *testing.T) {
	var entVecs [][]float32
	var items []item
	for i := 0; i < 40; i++ {
		base := unitv(float32(i+1), 1, 0)
		first := len(entVecs)
		var members []int
		switch i % 4 {
		case 0: // a singleton: never a prediction
			entVecs = append(entVecs, base)
		case 1: // a dense pair and an outlier the rules remove
			entVecs = append(entVecs, base, base, unitv(0, 0, 1))
		case 2: // dense throughout: kept whole
			entVecs = append(entVecs, base, base, base, base)
		case 3: // two far apart: pruned below two members
			entVecs = append(entVecs, base, unitv(0, 0, 1))
		}
		for p := first; p < len(entVecs); p++ {
			members = append(members, p)
		}
		items = append(items, item{members: members, maxJoinDist: float32(i%7) / 5})
	}
	store := rowsOf(entVecs)
	for _, disable := range []bool{false, true} {
		seq := DefaultOptions()
		seq.Eps = 0.5
		seq.DisablePruning = disable
		wantT, wantC := pruneItems(items, store, &seq)
		if disable && len(wantT) != 30 || !disable && (len(wantT) != 20 || len(wantT[0]) != 2) {
			t.Fatalf("DisablePruning=%v: sanity: kept %v", disable, wantT)
		}
		for _, workers := range []int{1, 2, 3, 7} {
			opt := seq
			opt.Parallel, opt.Workers = true, workers
			gotT, gotC := pruneItems(items, store, &opt)
			if !reflect.DeepEqual(gotT, wantT) || !reflect.DeepEqual(gotC, wantC) {
				t.Fatalf("DisablePruning=%v Workers=%d: parallel pruning gave %v %v, sequential %v %v",
					disable, workers, gotT, gotC, wantT, wantC)
			}
		}
	}
}

func TestPruneItemsDisabled(t *testing.T) {
	entVecs := [][]float32{unitv(1, 0), unitv(0, 1)}
	opt := DefaultOptions()
	opt.DisablePruning = true
	items := []item{{members: []int{0, 1}}}
	got, _ := pruneItems(items, rowsOf(entVecs), &opt)
	if len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("w/o DP must keep the raw tuple: %v", got)
	}
}
