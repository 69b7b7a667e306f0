package hnsw

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vector"
)

// shrinkInput builds one full block and the nodes that may join it: the
// block's node and 2+2M candidates, random vectors of dimension 2+dim.
// Candidate i is the node's vector plus Gaussian noise of norm about
// spread/32, scaled by (i+1)/(2+2M) so that the candidates lie at spread-out
// distances from the node — unless mode&2 is set, which keeps every
// candidate at the one noise norm: in a high dimension the heuristic then
// accepts every link. With quant > 0 each coordinate is rounded to a
// multiple of 1/quant before normalising, which on a coarse grid makes
// equal vectors, and so distance ties, likely. mode&1 makes the block's
// split unknown (-1), as after appends or a load.
type shrinkInput struct {
	seed                     int64
	dim, spread, quant, mode uint8
}

// The seeds reach each case shrinkFast tells apart;
// TestShrinkSeedsCoverEveryCase checks that they do.
var shrinkSeeds = []shrinkInput{
	{seed: 1, dim: 0, spread: 64, quant: 1},   // forced ties: a 3×3 grid in 2-D
	{seed: 2, dim: 60, spread: 8, mode: 2},    // every link accepted
	{seed: 3, dim: 12, spread: 48},            // links displaced; N first and last
	{seed: 4, dim: 12, spread: 48, mode: 1},   // a split of -1
	{seed: 5, dim: 28, spread: 160, quant: 4}, // a coarse grid, wide noise
	{seed: 6, dim: 2, spread: 255},            // noise swamps the node
	{seed: 7, dim: 20, spread: 20, quant: 200},
	{seed: 8, dim: 252, spread: 32, mode: 2}, // every link accepted, dim 254
}

// shrinkCases names what one shrink exercised, for the seed coverage check.
type shrinkCases struct {
	tie, allAccepted, first, last, unknown, displaced bool
}

func (c *shrinkCases) or(o shrinkCases) {
	c.tie, c.allAccepted = c.tie || o.tie, c.allAccepted || o.allAccepted
	c.first, c.last = c.first || o.first, c.last || o.last
	c.unknown, c.displaced = c.unknown || o.unknown, c.displaced || o.displaced
}

// checkShrink runs in on every kernel path: with each candidate n in turn as
// the new node N, the block is what a shrink of the other 2M+1 candidates
// kept (with its split, or -1 under mode&1), and shrinkFast over the block
// and N must keep what selectHeuristic(cands, 2M) keeps, in order, with the
// same count of picks — or decline, which it must under a split of -1.
func checkShrink(t *testing.T, in shrinkInput) shrinkCases {
	var seen shrinkCases
	prev := vector.Kernels()
	defer vector.SetKernels(prev)
	for _, mode := range []string{"scalar", "avx2", "auto"} {
		if vector.SetKernels(mode) != nil {
			continue
		}
		seen.or(checkShrinkOnce(t, in))
	}
	return seen
}

func checkShrinkOnce(t *testing.T, in shrinkInput) shrinkCases {
	t.Helper()
	const m = 12
	maxM := 2 * m
	dim := 2 + int(in.dim)
	rng := rand.New(rand.NewSource(in.seed))
	ix := New(dim, Config{M: m})
	node := randUnitVecs(rng, 1, dim)[0]
	ix.Append(0, node, vector.Ref{})
	for i := range maxM + 2 {
		v := make([]float32, dim)
		scale := float64(in.spread) / 32 / math.Sqrt(float64(dim))
		if in.mode&2 == 0 {
			scale *= float64(i+1) / float64(maxM+2)
		}
		for c := range v {
			v[c] = node[c] + float32(rng.NormFloat64()*scale)
			if in.quant > 0 {
				v[c] = float32(math.Round(float64(v[c])*float64(in.quant))) / float32(in.quant)
			}
		}
		ix.Append(1+i, vector.Normalize(v), vector.Ref{})
	}
	rows := make([][]float32, ix.Len())
	for i := range rows {
		rows[i] = make([]float32, dim)
		ix.Vectors().CopyTo(rows[i], i)
	}
	// dist is the distance linkBack gets for node b: Dists from a's row.
	dist := func(a, b int) float32 {
		out := make([]float32, 1)
		ix.Dists(rows[a], []int32{int32(b)}, out)
		return out[0]
	}

	var seen shrinkCases
	var slowScratch []vector.Neighbor
	for n := 1; n <= maxM+2; n++ {
		// The block: the shrink of the other candidates, as linkBack leaves it.
		var old []vector.Neighbor
		for c := 1; c <= maxM+2; c++ {
			if c != n {
				old = append(old, vector.Neighbor{ID: c, Dist: dist(0, c)})
			}
		}
		sortNeighbors(old)
		sel, split := ix.selectHeuristic(slices.Clone(old), maxM, &slowScratch)
		if len(sel) != maxM {
			t.Fatalf("a full block's heuristic kept %d of %d", len(sel), len(old))
		}
		nbs := make([]int32, maxM)
		for i, s := range sel {
			nbs[i] = int32(s.ID)
		}
		if in.mode%2 == 1 {
			split = -1
		}

		// N joins: the candidates as linkBack sorts them.
		cands := make([]vector.Neighbor, 0, maxM+1)
		for _, nb := range nbs {
			cands = append(cands, vector.Neighbor{ID: int(nb), Dist: dist(0, int(nb))})
		}
		cands = append(cands, vector.Neighbor{ID: n, Dist: dist(n, 0)})
		sortNeighbors(cands)

		fast, fastAcc, ok := ix.shrinkFast(cands, nbs, split, n, rows[n])
		fast = slices.Clone(fast)
		want, wantAcc := ix.selectHeuristic(cands, maxM, &slowScratch)
		at := slices.IndexFunc(cands, func(c vector.Neighbor) bool { return c.ID == n })
		c := shrinkCases{unknown: split < 0, allAccepted: split == maxM, first: at == 0, last: at == maxM}
		for k := 1; k < len(cands); k++ {
			c.tie = c.tie || cands[k-1].Dist == cands[k].Dist
		}
		if split < 0 && ok {
			t.Fatalf("N=%d: shrinkFast derived a shrink from an unknown split", n)
		}
		if ok {
			if !slices.Equal(ids(fast), ids(want)) || fastAcc != wantAcc {
				t.Fatalf("N=%d at %d of split %d: shrinkFast kept %v with %d picks, the heuristic %v with %d",
					n, at, split, ids(fast), fastAcc, ids(want), wantAcc)
			}
			picks := ids(fast[:fastAcc])
			for _, a := range nbs[:split] {
				c.displaced = c.displaced || !slices.Contains(picks, int(a))
			}
		}
		seen.or(c)
	}
	return seen
}

func ids(ns []vector.Neighbor) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = n.ID
	}
	return out
}

// FuzzShrinkMatchesHeuristic checks linkBack's derived shrink against the
// heuristic it replaces, on random blocks and every position of the new
// node among them, on every kernel path.
func FuzzShrinkMatchesHeuristic(f *testing.F) {
	for _, s := range shrinkSeeds {
		f.Add(s.seed, s.dim, s.spread, s.quant, s.mode)
	}
	f.Fuzz(func(t *testing.T, seed int64, dim, spread, quant, mode uint8) {
		checkShrink(t, shrinkInput{seed, dim, spread, quant, mode})
	})
}

// TestShrinkSeedsCoverEveryCase checks that the fuzz seeds reach every case
// shrinkFast tells apart: distance ties, a block whose links were all
// accepted, N nearest and N farthest, an unknown split, and an accepted link
// N displaces.
func TestShrinkSeedsCoverEveryCase(t *testing.T) {
	var seen shrinkCases
	for _, s := range shrinkSeeds {
		seen.or(checkShrink(t, s))
	}
	if want := (shrinkCases{true, true, true, true, true, true}); seen != want {
		t.Fatalf("seeds reach %+v, want every case", seen)
	}
}
