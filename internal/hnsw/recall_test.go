package hnsw

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/vector"
)

// TestRecallOnClusteredData pins approximate-search quality across layout
// changes: recall@10 against an exact scan must stay >= 0.95 on a clustered
// set (the hard case for graph navigability — the regime the merging phase
// actually runs in, where each table is many near-duplicate groups).
func TestRecallOnClusteredData(t *testing.T) {
	const (
		dim       = 32
		clusters  = 20
		perClust  = 100
		nQueries  = 100
		k         = 10
		minRecall = 0.95
	)
	rng := rand.New(rand.NewSource(7))
	centers := make([][]float32, clusters)
	for c := range centers {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		centers[c] = vector.Normalize(v)
	}
	point := func(c int, spread float64) []float32 {
		v := make([]float32, dim)
		for j := range v {
			v[j] = centers[c][j] + float32(rng.NormFloat64()*spread)
		}
		return vector.Normalize(v)
	}

	n := clusters * perClust
	vecs := make([][]float32, 0, n)
	for c := 0; c < clusters; c++ {
		for i := 0; i < perClust; i++ {
			vecs = append(vecs, point(c, 0.15))
		}
	}
	cfg := Config{M: 12, EfConstruction: 100, EfSearch: 80}
	ix := New(dim, cfg)
	for i, v := range vecs {
		if err := ix.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}

	exactTopK := func(q []float32) map[int]bool {
		ds := make([]vector.Neighbor, n)
		for i, v := range vecs {
			ds[i] = vector.Neighbor{ID: i, Dist: vector.CosineUnitDist(q, v)}
		}
		sort.Slice(ds, func(i, j int) bool {
			if ds[i].Dist != ds[j].Dist {
				return ds[i].Dist < ds[j].Dist
			}
			return ds[i].ID < ds[j].ID
		})
		want := make(map[int]bool, k)
		for _, nb := range ds[:k] {
			want[nb.ID] = true
		}
		return want
	}

	hits, total := 0, 0
	for qi := 0; qi < nQueries; qi++ {
		q := point(qi%clusters, 0.15)
		want := exactTopK(q)
		for _, r := range ix.Search(q, k, 0) {
			if want[r.ID] {
				hits++
			}
		}
		total += k
	}
	recall := float64(hits) / float64(total)
	if recall < minRecall {
		t.Fatalf("recall@%d = %.3f, want >= %v", k, recall, minRecall)
	}
	t.Logf("recall@%d = %.3f over %d queries", k, recall, nQueries)
}
