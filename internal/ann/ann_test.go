package ann

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/hnsw"
	"repro/internal/vector"
)

func unit(vs ...float32) []float32 { return vector.Normalize(vs) }

// storeOf copies rows into one arena; the row number is the id both joins
// report.
func storeOf(dim int, rows ...[]float32) *vector.Store {
	s := vector.NewStoreWithCap(dim, len(rows))
	for _, v := range rows {
		s.Append(v)
	}
	return s
}

// rowsOf packs a store's rows as the bitmask rows both joins read, row for
// row.
func rowsOf(s *vector.Store) *vector.SparseRows {
	rows := vector.NewSparseRows(s.Dim())
	for i := range s.Len() {
		rows.Append(s.At(i))
	}
	return rows
}

// exactIndex is the exact per-query Index over a store's rows, ids = row
// numbers: the form MutualTopK wants, scanning every row with CosineUnitDist.
type exactIndex struct {
	rows *vector.Store
}

func (x exactIndex) Search(q []float32, k, _ int) []vector.Neighbor {
	tk := vector.NewTopK(k)
	for i := 0; i < x.rows.Len(); i++ {
		tk.Push(i, vector.CosineUnitDist(q, x.rows.At(i)))
	}
	return tk.ResultsAppend(nil)
}

// joins are the two ways to evaluate Eq. 1; on exact indexes they must agree
// on every semantic case below.
var joins = map[string]func(a, b *vector.Store, k int, maxDist float32) []Pair{
	"indexed": func(a, b *vector.Store, k int, maxDist float32) []Pair {
		return MutualTopK(rowsOf(a), exactIndex{b}, rowsOf(b), exactIndex{a}, k, maxDist, 0, 0)
	},
	"exact": func(a, b *vector.Store, k int, maxDist float32) []Pair {
		return MutualTopKExact(rowsOf(a), rowsOf(b), k, maxDist, 0)
	},
}

func TestHNSWOverRows(t *testing.T) {
	s := storeOf(2, unit(1, 0), unit(0, 1))
	ix := HNSWOverRows(rowsOf(s), hnsw.Config{})
	if ix.Len() != 2 || ix.Unlinked() != 0 {
		t.Fatalf("Len = %d, unlinked %d", ix.Len(), ix.Unlinked())
	}
	if res := ix.Search(unit(0.05, 1), 1, 0); len(res) != 1 || res[0].ID != 1 {
		t.Fatalf("ids must be row numbers, got %v", res)
	}
}

// Two clusters: a0~b0 close, a1~b1 close, across-cluster far. Mutual top-1
// should recover exactly the within-cluster pairs.
func TestMutualTopKBasic(t *testing.T) {
	a := storeOf(3, unit(1, 0, 0), unit(0, 0, 1))
	b := storeOf(3, unit(0.99, 0.01, 0), unit(0.01, 0, 0.99))
	for name, join := range joins {
		pairs := join(a, b, 1, 0.5)
		if len(pairs) != 2 || pairs[0].A != 0 || pairs[0].B != 0 || pairs[1].A != 1 || pairs[1].B != 1 {
			t.Fatalf("%s: got %v, want (0,0) and (1,1)", name, pairs)
		}
	}
}

func TestMutualTopKDistanceThreshold(t *testing.T) {
	a := storeOf(2, unit(1, 0))
	b := storeOf(2, unit(0, 1)) // cosine distance 1.0
	for name, join := range joins {
		if got := join(a, b, 1, 0.5); got != nil {
			t.Fatalf("%s: threshold must reject distant pair, got %v", name, got)
		}
		if got := join(a, b, 1, 1.5); len(got) != 1 {
			t.Fatalf("%s: loose threshold must accept, got %v", name, got)
		}
	}
}

// Mutuality: b may be a's top-1 while a is not b's top-1; such pairs must be
// rejected.
func TestMutualTopKRequiresMutuality(t *testing.T) {
	// B has one point close to both A points; A has two points. With k=1:
	// a0 -> b0, a1 -> b0, but b0 -> a0 only. So (a1, b0) is not mutual.
	a := storeOf(2, unit(1, 0), unit(0.95, 0.05))
	b := storeOf(2, unit(0.99, 0.005))
	for name, join := range joins {
		pairs := join(a, b, 1, 1.0)
		if len(pairs) != 1 || pairs[0].A != 0 || pairs[0].B != 0 {
			t.Fatalf("%s: want exactly the mutual pair (0,0), got %v", name, pairs)
		}
	}
}

func TestMutualTopKEmptySides(t *testing.T) {
	one := storeOf(2, unit(1, 0))
	empty := vector.NewStore(2)
	for name, join := range joins {
		if got := join(empty, one, 1, 1); got != nil {
			t.Fatalf("%s: empty side A must yield nil, got %v", name, got)
		}
		if got := join(one, empty, 1, 1); got != nil {
			t.Fatalf("%s: empty side B must yield nil, got %v", name, got)
		}
		if got := join(one, one, 0, 1); got != nil {
			t.Fatalf("%s: k=0 must yield nil, got %v", name, got)
		}
	}
}

// randomSide draws n unit vectors of the given dimension.
func randomSide(rng *rand.Rand, n, dim int) *vector.Store {
	s := vector.NewStoreWithCap(dim, n)
	v := make([]float32, dim)
	for i := 0; i < n; i++ {
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		s.Append(vector.Normalize(v))
	}
	return s
}

// HNSW-backed mutual top-K must agree with the exact join on moderately
// sized random data, to the distance bits of every pair both return.
func TestMutualTopKHNSWAgreesWithExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, dim = 400, 16
	a, b := randomSide(rng, n, dim), randomSide(rng, n, dim)
	// Plant 50 near-duplicate pairs.
	for i := 0; i < 50; i++ {
		copyVec := append([]float32(nil), a.At(i)...)
		copyVec[0] += 0.01
		b.SetRow(i, vector.Normalize(copyVec))
	}
	ra, rb := rowsOf(a), rowsOf(b)
	want := MutualTopKExact(ra, rb, 1, 0.05, 0)

	cfg := hnsw.Config{EfSearch: 128}
	hA, hB := HNSWOverRows(ra, cfg), HNSWOverRows(rb, cfg)
	got := MutualTopK(ra, hB, rb, hA, 1, 0.05, 0, 0)

	// Both legs score through the one gather, so a pair both return
	// carries the same distance bits.
	key := func(p Pair) [2]int { return [2]int{p.A, p.B} }
	wantDist := map[[2]int]float32{}
	for _, p := range want {
		wantDist[key(p)] = p.Dist
	}
	hits := 0
	for _, p := range got {
		if d, ok := wantDist[key(p)]; ok {
			hits++
			if math.Float32bits(d) != math.Float32bits(p.Dist) {
				t.Errorf("pair %v: HNSW distance %v (%#08x), exact %v (%#08x)", key(p), p.Dist, math.Float32bits(p.Dist), d, math.Float32bits(d))
			}
		}
	}
	if len(want) < 40 {
		t.Fatalf("sanity: expected ~50 planted pairs, the exact join found %d", len(want))
	}
	if float64(hits) < 0.95*float64(len(want)) {
		t.Fatalf("HNSW recovered %d/%d mutual pairs", hits, len(want))
	}
}

func TestPairInvariants(t *testing.T) {
	// Pairs returned must always satisfy the distance threshold and index
	// rows of the correct sides.
	rng := rand.New(rand.NewSource(77))
	a, b := randomSide(rng, 100, 8), randomSide(rng, 60, 8)
	const maxDist = 0.9
	for name, join := range joins {
		pairs := join(a, b, 3, maxDist)
		if len(pairs) == 0 {
			t.Fatalf("%s: sanity: no pairs", name)
		}
		for _, p := range pairs {
			if p.Dist > maxDist {
				t.Fatalf("%s: pair %v violates threshold", name, p)
			}
			if p.A < 0 || p.A >= a.Len() || p.B < 0 || p.B >= b.Len() {
				t.Fatalf("%s: pair %v indexes outside its sides", name, p)
			}
		}
	}
}

// countingIndex records how many Search calls are in flight at once.
type countingIndex struct {
	Index
	active, peak *atomic.Int32
}

func (c countingIndex) Search(q []float32, k, ef int) []vector.Neighbor {
	n := c.active.Add(1)
	for {
		p := c.peak.Load()
		if n <= p || c.peak.CompareAndSwap(p, n) {
			break
		}
	}
	runtime.Gosched() // let the other workers overlap with this call
	defer c.active.Add(-1)
	return c.Index.Search(q, k, ef)
}

// The workers argument is the number of goroutines a join keeps busy — the
// contract the merging phase's budget split relies on.
func TestMutualTopKHonoursWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := randomSide(rng, 300, 8), randomSide(rng, 300, 8)
	for _, workers := range []int{1, 3} {
		var active, peak atomic.Int32
		ixA := countingIndex{exactIndex{a}, &active, &peak}
		ixB := countingIndex{exactIndex{b}, &active, &peak}
		MutualTopK(rowsOf(a), ixB, rowsOf(b), ixA, 1, 1, 0, workers)
		if got := int(peak.Load()); got > workers {
			t.Fatalf("workers=%d: %d searches in flight", workers, got)
		}
	}
}
