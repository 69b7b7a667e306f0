package multiem

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/embed"
	"repro/internal/table"
	"repro/internal/vector"
)

// PhaseTimings records wall-clock time per pipeline phase; the per-module
// breakdown of the paper's Figure 5.
type PhaseTimings struct {
	// Select is automated attribute selection ("S" in Fig. 5).
	Select time.Duration
	// Represent is entity serialization + embedding ("R").
	Represent time.Duration
	// Merge is table-wise hierarchical merging ("M" / "M(p)").
	Merge time.Duration
	// Prune is density-based pruning ("P" / "P(p)").
	Prune time.Duration
	// Total is end-to-end time.
	Total time.Duration
}

// Result is the pipeline output.
type Result struct {
	// Tuples are the predicted matched tuples as sorted entity-ID sets,
	// each of size >= 2 (Definition 2), ordered by smallest member.
	Tuples [][]int
	// AttrScores holds per-attribute significance diagnostics (Table VII);
	// nil when attribute selection was disabled.
	AttrScores []AttrScore
	// SelectedAttrs are the schema positions used for representation.
	SelectedAttrs []int
	// SelectedNames are the corresponding attribute names.
	SelectedNames []string
	// Confidences holds one merge-path confidence in [0, 1] per tuple in
	// Tuples (1 = every join along the tuple's merge history was exact).
	Confidences []float64
	// Timings is the per-phase breakdown.
	Timings PhaseTimings
}

// runState carries the pipeline's intermediate products alongside the public
// Result: the entities in position order, their embeddings (one contiguous
// arena, row = entity position), and the predicted tuples as entity
// positions. BuildMatcher consumes these to set up online serving without
// re-deriving them from the Result's entity IDs.
type runState struct {
	res     *Result
	ents    []*table.Entity
	entVecs *vector.Store
	// posTuples[i] lists entity positions (rows into ents/entVecs) for
	// res.Tuples[i]; the two are aligned index-by-index.
	posTuples [][]int
}

// Run executes the full MultiEM pipeline on a dataset.
func Run(d *table.Dataset, opt Options) (*Result, error) {
	st, err := run(d, opt)
	if err != nil {
		return nil, err
	}
	return st.res, nil
}

// run is Run plus intermediate state.
func run(d *table.Dataset, opt Options) (*runState, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if len(d.Tables) == 0 {
		return nil, fmt.Errorf("multiem: dataset %q has no tables", d.Name)
	}
	res := &Result{}
	start := time.Now()

	// Phase I-a: automated attribute selection (Algorithm 1).
	schema := d.Schema()
	tSel := time.Now()
	if opt.DisableAttrSelect {
		res.SelectedAttrs = allAttrIndexes(schema.Len())
	} else {
		res.AttrScores, res.SelectedAttrs = SelectAttributes(d, opt)
	}
	for _, j := range res.SelectedAttrs {
		res.SelectedNames = append(res.SelectedNames, schema.Attrs[j])
	}
	res.Timings.Select = time.Since(tSel)

	// Phase I-b: representation — serialize over selected attributes and
	// embed every entity.
	tRep := time.Now()
	ents := d.AllEntities()
	texts := make([]string, len(ents))
	sel := res.SelectedAttrs
	if len(sel) == schema.Len() {
		sel = nil // full serialization fast path
	}
	for i, e := range ents {
		texts[i] = table.Serialize(e, sel)
	}
	entVecs := embed.BatchStore(opt.Encoder, texts)
	res.Timings.Represent = time.Since(tRep)

	// Phase II: table-wise hierarchical merging (Algorithm 2).
	tMerge := time.Now()
	mc := &mergeContext{entVecs: entVecs, opt: &opt}
	tables := make([]mergeTable, 0, len(d.Tables))
	pos := 0
	for _, t := range d.Tables {
		rows := make([]item, t.Len())
		for r := range rows {
			rows[r] = item{members: []int{pos + r}}
		}
		tables = append(tables, mergeTable{items: rows, vecs: entVecs.Slice(pos, pos+t.Len())})
		pos += t.Len()
	}
	integrated := mc.hierarchicalMerge(tables)
	res.Timings.Merge = time.Since(tMerge)

	// Phase III: density-based pruning (Algorithm 4).
	tPrune := time.Now()
	posTuples, confs := pruneItems(integrated, entVecs, &opt)
	res.Timings.Prune = time.Since(tPrune)

	// Translate entity positions back to entity IDs, canonicalized, and
	// keep confidences and positions aligned through the sort.
	type scored struct {
		tuple []int
		pos   []int
		conf  float64
	}
	all := make([]scored, 0, len(posTuples))
	for ti, pt := range posTuples {
		ids := make([]int, len(pt))
		for i, p := range pt {
			ids[i] = ents[p].ID
		}
		all = append(all, scored{tuple: table.SortTuple(ids), pos: pt, conf: confs[ti]})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].tuple[0] < all[j].tuple[0] })
	res.Tuples = make([][]int, len(all))
	res.Confidences = make([]float64, len(all))
	sortedPos := make([][]int, len(all))
	for i, s := range all {
		res.Tuples[i] = s.tuple
		res.Confidences[i] = s.conf
		sortedPos[i] = s.pos
	}

	res.Timings.Total = time.Since(start)
	return &runState{res: res, ents: ents, entVecs: entVecs, posTuples: sortedPos}, nil
}

func allAttrIndexes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
