// Package ann implements the mutual top-K matched-pair search of the paper's
// Eq. 1 over the HNSW index:
//
//	Pm = {(e, e') | e ∈ topK(e') ∧ e' ∈ topK(e) ∧ dist(e, e') ≤ m}
//
// which is the core primitive of the two-table merging strategy (Alg. 3),
// in two forms over the same inputs and outputs: MutualTopK asks an index
// of each table once per row of the other (the paper's HNSW route), and
// MutualTopKExact computes the pair set exactly in one blocked pass over
// the distance matrix (exact.go). That pass scores only the blocks that may
// hold a pair within the threshold: a conservative filter over each row's
// nonzero coordinates picks them, and the tile kernel scores them, so the
// pairs and their distances are those of scoring every block.
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
	// Len reports the number of stored vectors.
	Len() int
}

// HNSWOverRows builds an HNSW index over the rows of s, each stored under its
// row number as id — the form MutualTopK expects: it appends every row, then
// links them once, which builds the graph row-by-row Adds would.
func HNSWOverRows(s *vector.Store, cfg hnsw.Config) *hnsw.Index {
	ix := hnsw.New(s.Dim(), cfg)
	for i := 0; i < s.Len(); i++ {
		ix.Append(i, s.At(i))
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
func MutualTopK(a *vector.Store, indexB Index, b *vector.Store, indexA Index,
	k int, maxDist float32, ef, workers int) []Pair {

	if k <= 0 || a.Len() == 0 || b.Len() == 0 {
		return nil
	}
	fwd := topKAll(a, indexB, k, ef, workers) // direction A -> B
	rev := topKAll(b, indexA, k, ef, workers) // direction B -> A

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
// goroutines.
func topKAll(queries *vector.Store, index Index, k, ef, workers int) [][]vector.Neighbor {
	out := make([][]vector.Neighbor, queries.Len())
	par.For(len(out), workers, func(_, i int) {
		out[i] = index.Search(queries.At(i), k, ef)
	})
	return out
}
