package hnsw

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/vector"
)

func randUnitVecs(rng *rand.Rand, n, dim int) [][]float32 {
	vecs := make([][]float32, n)
	for i := range vecs {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		vecs[i] = vector.Normalize(v)
	}
	return vecs
}

func bruteKNN(q []float32, vecs [][]float32, k int, dist func(a, b []float32) float32) []vector.Neighbor {
	tk := vector.NewTopK(k)
	for i, v := range vecs {
		tk.Push(i, dist(q, v))
	}
	return tk.Results()
}

func TestEmptyIndex(t *testing.T) {
	ix := New(4, Config{})
	if got := ix.Search([]float32{1, 0, 0, 0}, 3, 0); got != nil {
		t.Fatalf("empty index must return nil, got %v", got)
	}
	if ix.Len() != 0 {
		t.Fatal("empty index must have Len 0")
	}
}

func TestSingleElement(t *testing.T) {
	ix := New(2, Config{})
	if err := ix.Add(42, []float32{1, 0}); err != nil {
		t.Fatal(err)
	}
	res := ix.Search([]float32{0.9, 0.1}, 5, 0)
	if len(res) != 1 || res[0].ID != 42 {
		t.Fatalf("got %v, want single id 42", res)
	}
}

// TestDimMismatch: Add reports a foreign dimensionality, Append panics on it.
func TestDimMismatch(t *testing.T) {
	ix := New(3, Config{})
	if err := ix.Add(0, []float32{1, 0}); err == nil {
		t.Fatal("expected dimension error")
	}
	mustPanicWith(t, "hnsw: vector has dim 2, index wants 3", func() { ix.Append(0, []float32{1, 0}) })
	if ix.Len() != 0 {
		t.Fatalf("refused inserts left %d nodes", ix.Len())
	}
}

func TestExactOnTinySet(t *testing.T) {
	ix := New(2, Config{Seed: 7})
	pts := [][]float32{{1, 0}, {0, 1}, {-1, 0}, {0, -1}}
	for i, p := range pts {
		if err := ix.Add(i, p); err != nil {
			t.Fatal(err)
		}
	}
	res := ix.Search([]float32{0.95, 0.05}, 1, 0)
	if len(res) != 1 || res[0].ID != 0 {
		t.Fatalf("nearest to (1,0)-ish must be id 0, got %v", res)
	}
}

func TestSearchKLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vecs := randUnitVecs(rng, 50, 8)
	ix := New(8, Config{Seed: 3})
	for i, v := range vecs {
		if err := ix.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}
	if got := ix.Search(vecs[0], 0, 0); got != nil {
		t.Fatal("k=0 must return nil")
	}
	if got := ix.Search(vecs[0], 10, 0); len(got) != 10 {
		t.Fatalf("k=10 must return 10, got %d", len(got))
	}
	if got := ix.Search(vecs[0], 500, 0); len(got) != 50 {
		t.Fatalf("k beyond size must return all 50, got %d", len(got))
	}
}

func TestSelfIsNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vecs := randUnitVecs(rng, 200, 16)
	ix := New(16, Config{Seed: 5})
	for i, v := range vecs {
		if err := ix.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}
	misses := 0
	for i := 0; i < 50; i++ {
		res := ix.Search(vecs[i], 1, 0)
		if len(res) != 1 || res[0].ID != i {
			misses++
		}
	}
	if misses > 1 {
		t.Fatalf("self-lookup missed %d/50 times", misses)
	}
}

// Recall against brute force must be high on random data.
func TestRecallAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, dim, k, queries = 2000, 16, 10, 50
	vecs := randUnitVecs(rng, n, dim)
	ix := New(dim, Config{M: 16, EfConstruction: 200, EfSearch: 128, Seed: 9})
	for i, v := range vecs {
		if err := ix.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}
	totalHits, total := 0, 0
	for qi := 0; qi < queries; qi++ {
		q := randUnitVecs(rng, 1, dim)[0]
		want := bruteKNN(q, vecs, k, vector.CosineUnitDist)
		wantSet := make(map[int]bool, k)
		for _, w := range want {
			wantSet[w.ID] = true
		}
		got := ix.Search(q, k, 0)
		for _, g := range got {
			if wantSet[g.ID] {
				totalHits++
			}
		}
		total += k
	}
	recall := float64(totalHits) / float64(total)
	if recall < 0.9 {
		t.Fatalf("recall = %.3f, want >= 0.9", recall)
	}
}

// TestRecallEuclidean: on unit vectors |a-b|² = 2·CosineUnitDist(a, b), so
// the cosine index ranks as a euclidean one would, and must reach the same
// recall against a euclidean brute-force scan.
func TestRecallEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n, dim, k = 1000, 8, 5
	vecs := randUnitVecs(rng, n, dim)
	ix := New(dim, Config{EfSearch: 100, Seed: 13})
	for i, v := range vecs {
		if err := ix.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}
	hits, total := 0, 0
	for qi := 0; qi < 20; qi++ {
		q := randUnitVecs(rng, 1, dim)[0]
		want := bruteKNN(q, vecs, k, vector.EuclideanDist)
		wantSet := map[int]bool{}
		for _, w := range want {
			wantSet[w.ID] = true
		}
		for _, g := range ix.Search(q, k, 0) {
			if wantSet[g.ID] {
				hits++
			}
		}
		total += k
	}
	if r := float64(hits) / float64(total); r < 0.85 {
		t.Fatalf("euclidean recall = %.3f", r)
	}
}

func TestResultsSortedByDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vecs := randUnitVecs(rng, 300, 8)
	ix := New(8, Config{Seed: 2})
	for i, v := range vecs {
		if err := ix.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}
	res := ix.Search(vecs[17], 20, 0)
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatalf("results not sorted at %d: %v < %v", i, res[i].Dist, res[i-1].Dist)
		}
	}
}

func TestDuplicateVectors(t *testing.T) {
	ix := New(2, Config{Seed: 8})
	v := []float32{1, 0}
	for i := 0; i < 10; i++ {
		if err := ix.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}
	res := ix.Search(v, 10, 0)
	if len(res) != 10 {
		t.Fatalf("want all 10 duplicates, got %d", len(res))
	}
	for _, r := range res {
		if r.Dist > 1e-6 {
			t.Fatalf("duplicate at nonzero distance %v", r.Dist)
		}
	}
}

func TestExternalIDsArbitrary(t *testing.T) {
	ix := New(2, Config{Seed: 4})
	ids := []int{1000, -5, 0, 99999}
	pts := [][]float32{{1, 0}, {0, 1}, {-1, 0}, {0.7, 0.7}}
	for i := range ids {
		if err := ix.Add(ids[i], pts[i]); err != nil {
			t.Fatal(err)
		}
	}
	res := ix.Search([]float32{0, 0.99}, 1, 0)
	if res[0].ID != -5 {
		t.Fatalf("external id must round-trip, got %v", res)
	}
}

func TestConcurrentSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vecs := randUnitVecs(rng, 500, 8)
	ix := New(8, Config{Seed: 17})
	for i, v := range vecs {
		if err := ix.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				q := randUnitVecs(r, 1, 8)[0]
				if got := ix.Search(q, 5, 0); len(got) != 5 {
					t.Errorf("concurrent search returned %d results", len(got))
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

func TestDeterministicConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	vecs := randUnitVecs(rng, 300, 8)
	build := func() *Index {
		ix := New(8, Config{Seed: 99})
		for i, v := range vecs {
			if err := ix.Add(i, v); err != nil {
				t.Fatal(err)
			}
		}
		return ix
	}
	a, b := build(), build()
	q := vecs[123]
	ra := a.Search(q, 10, 0)
	rb := b.Search(q, 10, 0)
	if len(ra) != len(rb) {
		t.Fatal("determinism violated: different result counts")
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("determinism violated at %d: %v vs %v", i, ra[i], rb[i])
		}
	}
}

func TestClusteredDataNavigability(t *testing.T) {
	// Two tight clusters far apart: searches from each cluster must stay
	// inside it. This exercises the selection heuristic.
	rng := rand.New(rand.NewSource(15))
	ix := New(4, Config{M: 8, Seed: 23})
	n := 200
	for i := 0; i < n; i++ {
		base := []float32{1, 0, 0, 0}
		if i >= n/2 {
			base = []float32{0, 0, 0, 1}
		}
		v := make([]float32, 4)
		for j := range v {
			v[j] = base[j] + float32(rng.NormFloat64())*0.01
		}
		if err := ix.Add(i, vector.Normalize(v)); err != nil {
			t.Fatal(err)
		}
	}
	res := ix.Search([]float32{1, 0, 0, 0}, 10, 0)
	for _, r := range res {
		if r.ID >= n/2 {
			t.Fatalf("query in cluster A returned id %d from cluster B", r.ID)
		}
	}
	res = ix.Search([]float32{0, 0, 0, 1}, 10, 0)
	for _, r := range res {
		if r.ID < n/2 {
			t.Fatalf("query in cluster B returned id %d from cluster A", r.ID)
		}
	}
}

func BenchmarkBuild1k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vecs := randUnitVecs(rng, 1000, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix := New(32, Config{Seed: 1})
		for j, v := range vecs {
			if err := ix.Add(j, v); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSearch10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vecs := randUnitVecs(rng, 10000, 32)
	q := randUnitVecs(rng, 1, 32)[0]
	ix := New(32, Config{Seed: 1})
	for j, v := range vecs {
		if err := ix.Add(j, v); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.Search(q, 10, 0)
	}
}

// BenchmarkSearchBatched measures Search at the pipeline's real
// dimensionality (256, embed.DefaultDim) under both kernel paths: the
// batched neighbour expansion plus SIMD kernels vs the same batched
// traversal forced onto the portable scalar kernels.
func BenchmarkSearchBatched(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const dim = 256
	vecs := randUnitVecs(rng, 5000, dim)
	q := randUnitVecs(rng, 1, dim)[0]
	for _, mode := range []string{"auto", "scalar"} {
		b.Run(mode, func(b *testing.B) {
			if err := vector.SetKernels(mode); err != nil {
				b.Fatal(err)
			}
			defer func() {
				if err := vector.SetKernels("auto"); err != nil {
					b.Fatal(err)
				}
			}()
			ix := New(dim, Config{Seed: 1})
			for j, v := range vecs {
				if err := ix.Add(j, v); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix.Search(q, 10, 0)
			}
		})
	}
}

// TestAppendLinkEqualsAdd: Append then Link is Add split in two. n Appends
// and one Link, and random interleavings of Appends, Adds and Links, save the
// bytes n Adds save — on both kernel paths. Until its appended nodes are
// linked an index refuses to be searched, cloned or saved, naming how many
// wait; a decoded index has every node linked.
func TestAppendLinkEqualsAdd(t *testing.T) {
	const n, dim = 300, 19 // 19: the kernels' scalar tail runs
	for _, mode := range []string{"scalar", "avx2"} {
		t.Run(mode, func(t *testing.T) {
			prev := vector.Kernels()
			if err := vector.SetKernels(mode); err != nil {
				t.Skip(err)
			}
			defer vector.SetKernels(prev)
			vecs := randomUnitVecs(n, dim, 8)
			cfg := Config{M: 6, EfConstruction: 40, Seed: 5}
			want := savedBytes(t, buildIndex(t, vecs, cfg))

			ix := New(dim, cfg)
			for i, v := range vecs {
				ix.Append(i*7, v)
			}
			if ix.Len() != n || ix.Unlinked() != n {
				t.Fatalf("%d appended nodes, %d unlinked; want %d of each", ix.Len(), ix.Unlinked(), n)
			}
			for op, f := range map[string]func(){
				"Search": func() { ix.Search(vecs[0], 1, 0) },
				"Clone":  func() { ix.Clone() },
				"Save":   func() { ix.Save(&bytes.Buffer{}) },
			} {
				mustPanicWith(t, fmt.Sprintf("hnsw: %s with %d appended nodes not linked", op, n), f)
			}
			ix.Link()
			if got := savedBytes(t, ix); !bytes.Equal(got, want) {
				t.Fatalf("%d Appends and one Link save other bytes than %d Adds", n, n)
			}

			rng := rand.New(rand.NewSource(2))
			for trial := 0; trial < 4; trial++ {
				ix := New(dim, cfg)
				var ops []byte
				for i, v := range vecs {
					if rng.Intn(4) == 0 {
						ops = append(ops, 'A')
						if err := ix.Add(i*7, v); err != nil {
							t.Fatal(err)
						}
					} else {
						ops = append(ops, 'p')
						ix.Append(i*7, v)
					}
					if rng.Intn(16) == 0 {
						ops = append(ops, 'L')
						ix.Link()
					}
				}
				ix.Link()
				if got := savedBytes(t, ix); !bytes.Equal(got, want) {
					t.Fatalf("interleaving %s saves other bytes than %d Adds", ops, n)
				}
			}

			loaded, err := Load(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Unlinked() != 0 {
				t.Fatalf("a decoded index has %d nodes waiting for Link", loaded.Unlinked())
			}
			loaded.Clone().Search(vecs[0], 1, 0)
			if got := savedBytes(t, loaded); !bytes.Equal(got, want) {
				t.Fatal("a decoded index saves other bytes")
			}
		})
	}
}

func savedBytes(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustPanicWith(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if got := recover(); got != want {
			t.Fatalf("panic %v, want %q", got, want)
		}
	}()
	f()
}
