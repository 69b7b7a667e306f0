package hnsw

import (
	"math/rand"
	"testing"

	"repro/internal/vector"
)

// TestSearchStatsGolden pins the work searches do — queries served, nodes
// visited and distance evaluations, as SearchStats counts them — for a fixed
// clustered index and query set. The counts are exact at a seed, so a change
// to how the graph is built or walked shows here as a number rather than only
// through timing noise. Both kernel paths do the same work to the count.
func TestSearchStatsGolden(t *testing.T) {
	for _, mode := range []string{"scalar", "avx2"} {
		t.Run(mode, func(t *testing.T) {
			prev := vector.Kernels()
			if err := vector.SetKernels(mode); err != nil {
				t.Skip(err)
			}
			defer vector.SetKernels(prev)
			searchWorkGolden(t)
		})
	}
}

func searchWorkGolden(t *testing.T) {
	const dim, clusters, perCluster, queries = 32, 20, 60, 200
	rng := rand.New(rand.NewSource(29))
	centers := randUnitVecs(rng, clusters, dim)
	point := func(c int) []float32 {
		v := make([]float32, dim)
		for j := range v {
			v[j] = centers[c][j] + float32(rng.NormFloat64()*0.15)
		}
		return vector.Normalize(v)
	}
	ix := New(dim, Config{M: 12, EfConstruction: 64, EfSearch: 64})
	for i := 0; i < clusters*perCluster; i++ {
		if err := ix.Add(i, point(i%clusters)); err != nil {
			t.Fatal(err)
		}
	}
	for q := 0; q < queries; q++ {
		ix.Search(point(q%clusters), 10, 0)
	}
	searches, visited, evals := ix.SearchStats()
	want := [3]uint64{queries, 64564, 64564}
	if got := [3]uint64{searches, visited, evals}; got != want {
		t.Fatalf("search work (searches, visited, distance evals) = %v, want %v", got, want)
	}
}
