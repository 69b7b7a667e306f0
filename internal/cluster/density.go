// Package cluster provides the clustering substrates the system needs:
// the DBSCAN-style density classification of the paper's pruning phase
// (Definitions 3-5, Algorithm 4), and hierarchical agglomerative clustering
// used by the MSCD-HAC baseline.
package cluster

import (
	"repro/internal/vector"
)

// Role classifies an entity inside one candidate tuple.
type Role int

const (
	// Core entities have at least MinPts neighbours within eps
	// (Definition 3; the entity itself counts as its own neighbour, as in
	// standard DBSCAN and the scikit-learn implementation the paper uses).
	Core Role = iota
	// Reachable entities are non-core entities with at least one core
	// entity within eps (Definition 4).
	Reachable
	// Outlier entities are neither core nor reachable (Definition 5);
	// the pruning phase removes them.
	Outlier
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case Core:
		return "core"
	case Reachable:
		return "reachable"
	case Outlier:
		return "outlier"
	default:
		return "unknown"
	}
}

// ClassifyDensity implements Algorithm 4: given the vectors of one data
// item (candidate tuple), label every member Core, Reachable, or Outlier
// using euclidean distance, radius eps, and density threshold minPts.
//
// Tuples are small (a handful of entities, bounded by the number of
// sources), so the O(u²) pairwise distance matrix is the right tool.
func ClassifyDensity(vecs [][]float32, eps float32, minPts int) []Role {
	u := len(vecs)
	roles := make([]Role, u)
	if u == 0 {
		return roles
	}
	// Pairwise distance matrix.
	dist := make([][]float32, u)
	for i := range dist {
		dist[i] = make([]float32, u)
	}
	for i := 0; i < u; i++ {
		for j := i + 1; j < u; j++ {
			d := vector.EuclideanDist(vecs[i], vecs[j])
			dist[i][j], dist[j][i] = d, d
		}
	}
	// Pass 1: core entities (|N_eps(e)| >= minPts, self included).
	isCore := make([]bool, u)
	for i := 0; i < u; i++ {
		n := 0
		for j := 0; j < u; j++ {
			if dist[i][j] <= eps {
				n++
			}
		}
		isCore[i] = n >= minPts
	}
	// Pass 2: reachable vs outlier for non-core entities.
	for i := 0; i < u; i++ {
		if isCore[i] {
			roles[i] = Core
			continue
		}
		roles[i] = Outlier
		for j := 0; j < u; j++ {
			if j != i && isCore[j] && dist[i][j] <= eps {
				roles[i] = Reachable
				break
			}
		}
	}
	return roles
}

// PruneTuple applies the pruning rule of §III-D to one candidate tuple:
// outliers are dropped and the surviving member indexes are returned.
func PruneTuple(vecs [][]float32, eps float32, minPts int) []int {
	roles := ClassifyDensity(vecs, eps, minPts)
	keep := make([]int, 0, len(vecs))
	for i, r := range roles {
		if r != Outlier {
			keep = append(keep, i)
		}
	}
	return keep
}
