package cluster

// Linkage selects how HAC scores the distance between two clusters.
type Linkage int

const (
	// SingleLinkage uses the minimum pairwise distance.
	SingleLinkage Linkage = iota
	// CompleteLinkage uses the maximum pairwise distance.
	CompleteLinkage
	// AverageLinkage uses the mean pairwise distance.
	AverageLinkage
)

// String implements fmt.Stringer.
func (l Linkage) String() string {
	switch l {
	case SingleLinkage:
		return "single"
	case CompleteLinkage:
		return "complete"
	case AverageLinkage:
		return "average"
	default:
		return "unknown"
	}
}

// HACOptions configures hierarchical agglomerative clustering.
type HACOptions struct {
	// Linkage strategy; MSCD-HAC evaluates single/complete/average.
	Linkage Linkage
	// Dist returns the distance between points i and j. Required.
	Dist func(i, j int) float32
	// StopDist halts agglomeration when the closest cluster pair is
	// farther than this threshold.
	StopDist float32
	// Sources optionally assigns a source id to every point. When set,
	// merging is source-aware in the MSCD (multi-source clean) sense: a
	// merge is forbidden if it would place two entities of the same
	// source in one cluster, because each source is assumed
	// duplicate-free. Nil disables the constraint.
	Sources []int
}

// HAC performs hierarchical agglomerative clustering over n points and
// returns clusters as slices of point indexes.
//
// Cluster distances are maintained incrementally with the Lance-Williams
// update rules plus a per-cluster nearest-neighbour cache, giving O(n²)
// time and O(n²) memory — faithful to the quadratic blowup that makes the
// MSCD-HAC baseline infeasible beyond the smallest benchmark (Table V):
// 20k points already demand a 1.6 GB distance matrix.
func HAC(n int, opt HACOptions) [][]int {
	if n == 0 {
		return nil
	}
	if opt.Dist == nil {
		panic("cluster: HACOptions.Dist is required")
	}

	// active[c] reports whether cluster slot c is still live; clusters
	// merge into the lower slot.
	active := make([]bool, n)
	members := make([][]int, n)
	srcSets := make([]map[int]bool, n)
	for i := 0; i < n; i++ {
		active[i] = true
		members[i] = []int{i}
		if opt.Sources != nil {
			srcSets[i] = map[int]bool{opt.Sources[i]: true}
		}
	}

	// Cluster-distance matrix, initialized to point distances and updated
	// by Lance-Williams on each merge.
	dist := make([][]float32, n)
	for i := range dist {
		dist[i] = make([]float32, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := opt.Dist(i, j)
			dist[i][j], dist[j][i] = d, d
		}
	}

	conflict := func(a, b int) bool {
		if opt.Sources == nil {
			return false
		}
		small, large := srcSets[a], srcSets[b]
		if len(small) > len(large) {
			small, large = large, small
		}
		for s := range small {
			if large[s] {
				return true
			}
		}
		return false
	}

	// Nearest-mergeable-neighbour cache: nnOf[c] is the best partner for
	// cluster c (or -1), nnDist[c] its distance. Invalidated entries are
	// recomputed lazily.
	nnOf := make([]int, n)
	nnDist := make([]float32, n)
	recompute := func(c int) {
		nnOf[c] = -1
		for o := 0; o < n; o++ {
			if o == c || !active[o] || conflict(c, o) {
				continue
			}
			if nnOf[c] < 0 || dist[c][o] < nnDist[c] {
				nnOf[c], nnDist[c] = o, dist[c][o]
			}
		}
	}
	for c := 0; c < n; c++ {
		recompute(c)
	}

	liveCount := n
	for liveCount > 1 {
		// Global best mergeable pair from the cache.
		best := -1
		for c := 0; c < n; c++ {
			if !active[c] || nnOf[c] < 0 {
				continue
			}
			if best < 0 || nnDist[c] < nnDist[best] {
				best = c
			}
		}
		if best < 0 || nnDist[best] > opt.StopDist {
			break
		}
		a, b := best, nnOf[best]
		if a > b {
			a, b = b, a
		}

		// Lance-Williams update of row a (the surviving cluster).
		na, nb := float32(len(members[a])), float32(len(members[b]))
		for o := 0; o < n; o++ {
			if !active[o] || o == a || o == b {
				continue
			}
			da, db := dist[a][o], dist[b][o]
			var d float32
			switch opt.Linkage {
			case SingleLinkage:
				d = da
				if db < d {
					d = db
				}
			case CompleteLinkage:
				d = da
				if db > d {
					d = db
				}
			default: // AverageLinkage
				d = (na*da + nb*db) / (na + nb)
			}
			dist[a][o], dist[o][a] = d, d
		}
		members[a] = append(members[a], members[b]...)
		if opt.Sources != nil {
			for s := range srcSets[b] {
				srcSets[a][s] = true
			}
		}
		active[b] = false
		liveCount--

		// Refresh caches: a changed, b died, and any cluster pointing at
		// a or b must be recomputed (its cached distance may be stale or
		// its partner gone; with the source constraint, a's new source
		// set can also invalidate partners).
		recompute(a)
		for c := 0; c < n; c++ {
			if !active[c] || c == a {
				continue
			}
			if nnOf[c] == a || nnOf[c] == b {
				recompute(c)
			}
		}
	}

	var out [][]int
	for c := 0; c < n; c++ {
		if active[c] {
			out = append(out, members[c])
		}
	}
	return out
}
