package multiem

import (
	"runtime"
	"sync"

	"repro/internal/cluster"
	"repro/internal/vector"
)

// pruneItems implements Phase III (§III-D): every candidate tuple with at
// least two members is classified with the density rules of Definitions 3-5
// and its outlier entities are removed. Tuples that shrink below two members
// stop being predictions (Definition 2 requires l >= 2).
//
// With opt.Parallel, tuples are partitioned across workers (§III-E,
// "pruning in parallel"); pruning each tuple is independent, so the
// partitioning does not change results.
func pruneItems(items []item, entVecs *vector.Store, opt *Options) ([][]int, []float64) {
	// confidence maps an item's worst accepted merge distance into (0, 1]:
	// 1 means every join was exact, lower means some join was near the
	// threshold M.
	confidence := func(it item) float64 {
		c := 1 - float64(it.maxJoinDist)/2
		if c < 0 {
			c = 0
		}
		return c
	}
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

	if !opt.Parallel {
		var tuples [][]int
		var confs []float64
		for _, it := range items {
			if t := prune(it); t != nil {
				tuples = append(tuples, t)
				confs = append(confs, confidence(it))
			}
		}
		return tuples, confs
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	if workers == 0 {
		return nil, nil
	}
	type part struct {
		tuples [][]int
		confs  []float64
	}
	results := make([]part, workers)
	var wg sync.WaitGroup
	chunk := (len(items) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(items) {
			hi = len(items)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for _, it := range items[lo:hi] {
				if t := prune(it); t != nil {
					results[w].tuples = append(results[w].tuples, t)
					results[w].confs = append(results[w].confs, confidence(it))
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	var tuples [][]int
	var confs []float64
	for _, p := range results {
		tuples = append(tuples, p.tuples...)
		confs = append(confs, p.confs...)
	}
	return tuples, confs
}
