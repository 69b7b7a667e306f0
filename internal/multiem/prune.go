package multiem

import (
	"repro/internal/cluster"
	"repro/internal/par"
	"repro/internal/vector"
)

// pruneItems implements Phase III (§III-D): every candidate tuple with at
// least two members is classified with the density rules of Definitions 3-5
// and its outlier entities are removed. Tuples that shrink below two members
// stop being predictions (Definition 2 requires l >= 2). Each surviving tuple
// carries confidenceFrom its worst accepted merge distance.
//
// With opt.Parallel, tuples are handed out across workers (§III-E, "pruning
// in parallel"); pruning each tuple is independent and the survivors keep
// item order, so the split does not change results.
func pruneItems(items []item, entVecs *vector.Store, opt *Options) ([][]int, []float64) {
	prune := func(it item) []int {
		if len(it.members) < 2 {
			return nil
		}
		if opt.DisablePruning {
			return it.members
		}
		vecs := make([][]float32, len(it.members))
		for i, pos := range it.members {
			vecs[i] = entVecs.At(pos)
		}
		keep := cluster.PruneTuple(vecs, opt.Eps, opt.MinPts)
		if len(keep) < 2 {
			return nil
		}
		out := make([]int, len(keep))
		for i, k := range keep {
			out[i] = it.members[k]
		}
		return out
	}

	kept := make([][]int, len(items))
	par.For(len(items), opt.workers(), func(_, i int) {
		kept[i] = prune(items[i])
	})
	var tuples [][]int
	var confs []float64
	for i, t := range kept {
		if t != nil {
			tuples = append(tuples, t)
			confs = append(confs, confidenceFrom(items[i].maxJoinDist))
		}
	}
	return tuples, confs
}
