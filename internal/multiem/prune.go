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
func pruneItems(items []item, entVecs *vector.SparseRows, opt *Options) ([][]int, []float64) {
	// Each worker expands a tuple's member rows into buffers of its own,
	// which the next tuple it prunes reuses.
	dim, workers := entVecs.Dim(), par.Workers(len(items), opt.workers())
	vecs := make([][][]float32, workers)
	prune := func(w int, it item) []int {
		if len(it.members) < 2 {
			return nil
		}
		if opt.DisablePruning {
			return it.members
		}
		for len(vecs[w]) < len(it.members) {
			vecs[w] = append(vecs[w], make([]float32, dim))
		}
		vecs := vecs[w][:len(it.members)]
		for i, pos := range it.members {
			entVecs.CopyTo(vecs[i], pos)
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
	par.For(len(items), workers, func(w, i int) {
		kept[i] = prune(w, items[i])
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
