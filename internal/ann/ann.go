// Package ann implements the mutual top-K matched-pair search of the paper's
// Eq. 1 over the HNSW index:
//
//	Pm = {(e, e') | e ∈ topK(e') ∧ e' ∈ topK(e) ∧ dist(e, e') ≤ m}
//
// which is the core primitive of the two-table merging strategy (Alg. 3),
// in two forms over the same inputs and outputs, two tables of bitmask rows
// (vector.SparseRows): MutualTopK asks an index of each table once per row
// of the other (the paper's HNSW route), and MutualTopKExact computes the
// pair set exactly in one blocked pass over the distance matrix (exact.go).
// That pass scores only the pairs that may be within the threshold: a
// conservative filter that walks each row's mask picks them, and the
// bitmask-row gather the HNSW leg scores with (vector.SparseRows'
// CosineUnitGather) scores them, so the pairs and their distances are those
// of scoring every pair, and a pair both forms return has the same distance
// bits in each. Both rank a row's neighbours with vector.TopK, by distance
// and then by lower row, and both apply Eq. 1 to the two directions'
// rankings in one step, mutualPairs.
//
// Both fan out through par.For on workers goroutines (par.Workers: 1 runs on
// the caller, <= 0 uses GOMAXPROCS); the pairs found do not depend on it.
package ann

import (
	"repro/internal/hnsw"
	"repro/internal/par"
	"repro/internal/vector"
)

// Index is the read side of a vector index.
type Index interface {
	// Search returns the k nearest stored vectors to q sorted by
	// increasing distance. ef tunes beam width where supported (<= 0
	// picks the backend default).
	Search(q []float32, k, ef int) []vector.Neighbor
}

// HNSWOverRows builds an HNSW index over the rows of s, each stored under its
// row number as id — the form MutualTopK expects: it appends every row, then
// links them once, which builds the graph row-by-row Adds would. The index
// keeps node rows of its own, on a data arena of its own, so s may be read
// by other goroutines meanwhile.
func HNSWOverRows(s *vector.SparseRows, cfg hnsw.Config) *hnsw.Index {
	ix := hnsw.New(s.Dim(), cfg)
	v := make([]float32, s.Dim())
	for i := 0; i < s.Len(); i++ {
		s.CopyTo(v, i)
		ix.Append(i, v, vector.Ref{})
	}
	ix.Link()
	return ix
}

// Pair is a matched pair of rows — A indexes the first table, B the second —
// with their distance.
type Pair struct {
	A, B int
	Dist float32
}

// MutualTopK finds all pairs (i, j) of a row of a and a row of b such that j
// is among i's k nearest in b, i is among j's k nearest in a, and
// dist(i, j) <= maxDist — the paper's Eq. 1 — by asking an index of each
// side once per row of the other. indexA and indexB must hold the rows of a
// and b under their row numbers as ids (HNSWOverRows). It is the approximate,
// O((|a|+|b|)·log) leg of two-table merging; MutualTopKExact is the exact,
// O(|a|·|b|) one.
//
// workers bounds query parallelism: 1 asks every query on the caller
// (MultiEM's non-parallel mode), <= 0 uses GOMAXPROCS.
func MutualTopK(a *vector.SparseRows, indexB Index, b *vector.SparseRows, indexA Index,
	k int, maxDist float32, ef, workers int) []Pair {

	if k <= 0 || a.Len() == 0 || b.Len() == 0 {
		return nil
	}
	fwd := topKAll(a, indexB, k, ef, workers) // direction A -> B
	rev := topKAll(b, indexA, k, ef, workers) // direction B -> A
	return mutualPairs(fwd, rev, maxDist)
}

// mutualPairs is Eq. 1 on both directions' rankings: fwd[i] holds a's row i's
// nearest rows of b, rev[j] b's row j's nearest rows of a, each in rank
// order. It returns the pairs each side ranks for the other and that lie
// within maxDist, ordered by A, then by rank among A's neighbours.
func mutualPairs(fwd, rev [][]vector.Neighbor, maxDist float32) []Pair {
	// k is small (the paper fixes k=1), so a linear scan over b's choices
	// beats a set per row.
	chose := func(ns []vector.Neighbor, id int) bool {
		for _, n := range ns {
			if n.ID == id {
				return true
			}
		}
		return false
	}
	var pairs []Pair
	for i, ns := range fwd {
		for _, n := range ns {
			if n.Dist > maxDist || n.ID < 0 || n.ID >= len(rev) {
				continue
			}
			if chose(rev[n.ID], i) {
				pairs = append(pairs, Pair{A: i, B: n.ID, Dist: n.Dist})
			}
		}
	}
	return pairs
}

// topKAll runs index.Search for every row of queries across workers
// goroutines, each expanding its query rows into a buffer of its own.
func topKAll(queries *vector.SparseRows, index Index, k, ef, workers int) [][]vector.Neighbor {
	out := make([][]vector.Neighbor, queries.Len())
	qs := make([][]float32, par.Workers(len(out), workers))
	for w := range qs {
		qs[w] = make([]float32, queries.Dim())
	}
	par.For(len(out), workers, func(w, i int) {
		queries.CopyTo(qs[w], i)
		out[i] = index.Search(qs[w], k, ef)
	})
	return out
}
