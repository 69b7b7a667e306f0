package vector

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float32) bool {
	return float32(math.Abs(float64(a-b))) <= tol
}

func TestDot(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestNorm(t *testing.T) {
	if got := Norm([]float32{3, 4}); got != 5 {
		t.Fatalf("Norm = %v, want 5", got)
	}
	if got := Norm(nil); got != 0 {
		t.Fatalf("Norm(nil) = %v, want 0", got)
	}
}

func TestNormalize(t *testing.T) {
	v := []float32{3, 4}
	Normalize(v)
	if !almostEq(Norm(v), 1, 1e-6) {
		t.Fatalf("normalized norm = %v, want 1", Norm(v))
	}
	zero := []float32{0, 0}
	Normalize(zero)
	if zero[0] != 0 || zero[1] != 0 {
		t.Fatal("zero vector must stay zero")
	}
}

// TestCosineSim: on normalized inputs, 1 - CosineUnitDist is the cosine
// similarity, and a zero vector (which Normalize leaves zero) is at
// similarity 0 from everything.
func TestCosineSim(t *testing.T) {
	tests := []struct {
		name string
		a, b []float32
		want float32
	}{
		{"identical", []float32{1, 2}, []float32{1, 2}, 1},
		{"opposite", []float32{1, 0}, []float32{-1, 0}, -1},
		{"orthogonal", []float32{1, 0}, []float32{0, 1}, 0},
		{"zero-a", []float32{0, 0}, []float32{1, 1}, 0},
		{"zero-b", []float32{1, 1}, []float32{0, 0}, 0},
		{"scaled", []float32{1, 2}, []float32{10, 20}, 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := 1 - CosineUnitDist(Normalize(tc.a), Normalize(tc.b)); !almostEq(got, tc.want, 1e-6) {
				t.Fatalf("cosine similarity = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestCosineDistRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a := Normalize(randVec(rng, 8))
		b := Normalize(randVec(rng, 8))
		d := CosineUnitDist(a, b)
		if d < -1e-5 || d > 2+1e-5 {
			t.Fatalf("cosine distance %v out of [0,2]", d)
		}
	}
}

func TestEuclideanDist(t *testing.T) {
	a := []float32{0, 0}
	b := []float32{3, 4}
	if got := EuclideanDist(a, b); got != 5 {
		t.Fatalf("EuclideanDist = %v, want 5", got)
	}
	if got := SquaredDist(a, b); got != 25 {
		t.Fatalf("SquaredDist = %v, want 25", got)
	}
}

// TestMetricDist: the two distances, one per phase, on one orthogonal pair.
func TestMetricDist(t *testing.T) {
	a := []float32{1, 0}
	b := []float32{0, 1}
	if got := CosineUnitDist(a, b); !almostEq(got, 1, 1e-6) {
		t.Fatalf("CosineUnitDist = %v, want 1", got)
	}
	if got := EuclideanDist(a, b); !almostEq(got, float32(math.Sqrt2), 1e-6) {
		t.Fatalf("EuclideanDist = %v, want sqrt2", got)
	}
}

// Property: the triangle inequality holds for euclidean distance.
func TestEuclideanTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float32) bool {
		a := []float32{ax, ay}
		b := []float32{bx, by}
		c := []float32{cx, cy}
		ab := float64(EuclideanDist(a, b))
		bc := float64(EuclideanDist(b, c))
		ac := float64(EuclideanDist(a, c))
		if math.IsNaN(ab) || math.IsNaN(bc) || math.IsNaN(ac) ||
			math.IsInf(ab, 0) || math.IsInf(bc, 0) || math.IsInf(ac, 0) {
			return true // degenerate float inputs from quick are not interesting
		}
		return ac <= ab+bc+1e-3*(1+ab+bc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: cosine distance over normalized vectors is symmetric to the bit
// and invariant to scaling a vector before it is normalized.
func TestCosineSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		raw := randVec(rng, 16)
		scaled := make([]float32, len(raw))
		for j := range raw {
			scaled[j] = raw[j] * 3.5
		}
		a, b := Normalize(raw), Normalize(randVec(rng, 16))
		if CosineUnitDist(a, b) != CosineUnitDist(b, a) {
			t.Fatal("cosine distance must be symmetric")
		}
		if !almostEq(CosineUnitDist(a, b), CosineUnitDist(Normalize(scaled), b), 1e-5) {
			t.Fatal("cosine distance must be scale invariant")
		}
	}
}

func TestTopKKeepsSmallest(t *testing.T) {
	tk := NewTopK(3)
	dists := []float32{5, 1, 4, 2, 8, 3}
	for i, d := range dists {
		tk.Push(i, d)
	}
	res := tk.ResultsAppend(nil)
	want := []float32{1, 2, 3}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	for i := range want {
		if res[i].Dist != want[i] {
			t.Fatalf("result %d = %v, want dist %v", i, res[i], want[i])
		}
	}
}

func TestTopKFewerThanK(t *testing.T) {
	tk := NewTopK(10)
	tk.Push(1, 0.5)
	tk.Push(2, 0.25)
	res := tk.ResultsAppend(nil)
	if len(res) != 2 || res[0].ID != 2 || res[1].ID != 1 {
		t.Fatalf("unexpected results %v", res)
	}
}

func TestTopKTieBreaksByID(t *testing.T) {
	tk := NewTopK(2)
	tk.Push(9, 1.0)
	tk.Push(3, 1.0)
	res := tk.ResultsAppend(nil)
	if res[0].ID != 3 || res[1].ID != 9 {
		t.Fatalf("ties must order by ID, got %v", res)
	}
}

func TestTopKZeroKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	NewTopK(0)
}

// Property: TopK agrees with full sort for random streams.
func TestTopKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		dists := make([]float32, n)
		tk := NewTopK(k)
		for i := range dists {
			dists[i] = rng.Float32()
			tk.Push(i, dists[i])
		}
		sorted := append([]float32(nil), dists...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		res := tk.ResultsAppend(nil)
		wantLen := k
		if n < k {
			wantLen = n
		}
		if len(res) != wantLen {
			t.Fatalf("got %d results, want %d", len(res), wantLen)
		}
		for i, r := range res {
			if r.Dist != sorted[i] {
				t.Fatalf("trial %d: rank %d dist %v, want %v", trial, i, r.Dist, sorted[i])
			}
		}
	}
}

func TestMinHeapOrdering(t *testing.T) {
	var h MinHeap
	for _, d := range []float32{4, 1, 3, 2, 5} {
		h.Push(Neighbor{ID: int(d), Dist: d})
	}
	prev := float32(-1)
	for h.Len() > 0 {
		n := h.Pop()
		if n.Dist < prev {
			t.Fatalf("heap pop out of order: %v after %v", n.Dist, prev)
		}
		prev = n.Dist
	}
}

func TestMinHeapRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h MinHeap
	var ref []float32
	for i := 0; i < 500; i++ {
		d := rng.Float32()
		h.Push(Neighbor{ID: i, Dist: d})
		ref = append(ref, d)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	for i := 0; h.Len() > 0; i++ {
		if got := h.Pop().Dist; got != ref[i] {
			t.Fatalf("pop %d = %v, want %v", i, got, ref[i])
		}
	}
}

func randVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
	return v
}
