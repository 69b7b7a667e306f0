package cluster

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/vector"
)

func TestClassifyDensityEmpty(t *testing.T) {
	if got := ClassifyDensity(nil, 1, 2); len(got) != 0 {
		t.Fatal("empty input must yield empty roles")
	}
}

func TestClassifyDensitySingleton(t *testing.T) {
	roles := ClassifyDensity([][]float32{{0, 0}}, 1, 2)
	// A singleton has only itself as neighbour: 1 < MinPts=2 and no core
	// exists, so it is an outlier.
	if roles[0] != Outlier {
		t.Fatalf("singleton with minPts=2 must be outlier, got %v", roles[0])
	}
	roles = ClassifyDensity([][]float32{{0, 0}}, 1, 1)
	if roles[0] != Core {
		t.Fatalf("singleton with minPts=1 must be core, got %v", roles[0])
	}
}

// Reproduces Figure 4: e1,e2,e3 tight, e4 far away -> e4 is the outlier.
func TestClassifyDensityFigure4(t *testing.T) {
	vecs := [][]float32{
		{0, 0},   // e1
		{0.1, 0}, // e2
		{0, 0.1}, // e3
		{5, 5},   // e4 outlier
	}
	roles := ClassifyDensity(vecs, 0.5, 2)
	if roles[0] != Core || roles[1] != Core || roles[2] != Core {
		t.Fatalf("tight points must be core: %v", roles)
	}
	if roles[3] != Outlier {
		t.Fatalf("distant point must be outlier: %v", roles)
	}
}

func TestClassifyDensityReachable(t *testing.T) {
	// Three collinear points: a--b--c with spacing 0.9 and eps 1.0,
	// minPts 3. b sees all three (core); a and c see only two each
	// (non-core) but each is within eps of core b -> reachable.
	vecs := [][]float32{{0}, {0.9}, {1.8}}
	roles := ClassifyDensity(vecs, 1.0, 3)
	want := []Role{Reachable, Core, Reachable}
	if !reflect.DeepEqual(roles, want) {
		t.Fatalf("roles = %v, want %v", roles, want)
	}
}

func TestClassifyDensityAllOutliers(t *testing.T) {
	vecs := [][]float32{{0}, {10}, {20}}
	roles := ClassifyDensity(vecs, 1, 2)
	for i, r := range roles {
		if r != Outlier {
			t.Fatalf("point %d = %v, want outlier", i, r)
		}
	}
}

func TestPruneTuple(t *testing.T) {
	vecs := [][]float32{{0, 0}, {0.1, 0}, {5, 5}}
	keep := PruneTuple(vecs, 0.5, 2)
	if !reflect.DeepEqual(keep, []int{0, 1}) {
		t.Fatalf("keep = %v, want [0 1]", keep)
	}
}

func TestPruneTupleKeepsAllWhenDense(t *testing.T) {
	vecs := [][]float32{{0}, {0.1}, {0.2}, {0.15}}
	keep := PruneTuple(vecs, 0.5, 2)
	if len(keep) != 4 {
		t.Fatalf("dense tuple must survive intact, got %v", keep)
	}
}

func TestRoleString(t *testing.T) {
	if Core.String() != "core" || Reachable.String() != "reachable" || Outlier.String() != "outlier" {
		t.Fatal("role names wrong")
	}
	if Role(42).String() != "unknown" {
		t.Fatal("unknown role must say unknown")
	}
}

// Property: roles partition the tuple, and every non-outlier has a path to
// a core entity within eps.
func TestClassifyDensityInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 100; trial++ {
		u := 1 + rng.Intn(12)
		vecs := make([][]float32, u)
		for i := range vecs {
			vecs[i] = []float32{rng.Float32() * 3, rng.Float32() * 3}
		}
		eps := float32(0.5 + rng.Float64())
		minPts := 1 + rng.Intn(4)
		roles := ClassifyDensity(vecs, eps, minPts)
		for i, r := range roles {
			n := 0
			for j := range vecs {
				if vector.EuclideanDist(vecs[i], vecs[j]) <= eps {
					n++
				}
			}
			isCore := n >= minPts
			switch r {
			case Core:
				if !isCore {
					t.Fatalf("trial %d: point %d labelled core but has %d < %d neighbours", trial, i, n, minPts)
				}
			case Reachable:
				if isCore {
					t.Fatalf("trial %d: core point %d labelled reachable", trial, i)
				}
				found := false
				for j := range vecs {
					if j != i && roles[j] == Core && vector.EuclideanDist(vecs[i], vecs[j]) <= eps {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("trial %d: reachable point %d has no core neighbour", trial, i)
				}
			case Outlier:
				if isCore {
					t.Fatalf("trial %d: core point %d labelled outlier", trial, i)
				}
				for j := range vecs {
					if j != i && roles[j] == Core && vector.EuclideanDist(vecs[i], vecs[j]) <= eps {
						t.Fatalf("trial %d: outlier %d is within eps of core %d", trial, i, j)
					}
				}
			}
		}
	}
}

// euclidean is HACOptions.Dist over a point set.
func euclidean(vecs [][]float32) func(i, j int) float32 {
	return func(i, j int) float32 { return vector.EuclideanDist(vecs[i], vecs[j]) }
}

func TestHACEmpty(t *testing.T) {
	if got := HAC(0, HACOptions{Dist: func(i, j int) float32 { return 0 }, StopDist: 1}); got != nil {
		t.Fatal("empty HAC must return nil")
	}
}

func TestHACTwoClusters(t *testing.T) {
	vecs := [][]float32{{0}, {0.1}, {0.2}, {10}, {10.1}}
	got := HAC(len(vecs), HACOptions{Linkage: AverageLinkage, Dist: euclidean(vecs), StopDist: 1})
	if len(got) != 2 {
		t.Fatalf("want 2 clusters, got %d: %v", len(got), got)
	}
	sizes := []int{len(got[0]), len(got[1])}
	sort.Ints(sizes)
	if sizes[0] != 2 || sizes[1] != 3 {
		t.Fatalf("cluster sizes %v, want [2 3]", sizes)
	}
}

func TestHACStopDistZeroKeepsSingletons(t *testing.T) {
	vecs := [][]float32{{0}, {5}, {9}}
	got := HAC(len(vecs), HACOptions{Dist: euclidean(vecs), StopDist: 0.001})
	if len(got) != 3 {
		t.Fatalf("nothing should merge, got %v", got)
	}
}

func TestHACLinkagesDiffer(t *testing.T) {
	// A chain 0 - 1 - 2 with unit gaps: single linkage merges the whole
	// chain under stop 1.5; complete linkage keeps the far ends apart
	// when their distance (2.0) exceeds the stop.
	vecs := [][]float32{{0}, {1}, {2}}
	single := HAC(len(vecs), HACOptions{Linkage: SingleLinkage, Dist: euclidean(vecs), StopDist: 1.5})
	if len(single) != 1 {
		t.Fatalf("single linkage should chain everything: %v", single)
	}
	complete := HAC(len(vecs), HACOptions{Linkage: CompleteLinkage, Dist: euclidean(vecs), StopDist: 1.5})
	if len(complete) != 2 {
		t.Fatalf("complete linkage should stop at 2 clusters: %v", complete)
	}
}

func TestHACSourceConstraint(t *testing.T) {
	// Two identical points from the same source must not merge when the
	// MSCD source constraint is active.
	vecs := [][]float32{{0}, {0.01}}
	sources := []int{0, 0}
	got := HAC(len(vecs), HACOptions{Dist: euclidean(vecs), StopDist: 1, Sources: sources})
	if len(got) != 2 {
		t.Fatalf("same-source merge must be forbidden: %v", got)
	}
	// Different sources merge fine.
	got = HAC(len(vecs), HACOptions{Dist: euclidean(vecs), StopDist: 1, Sources: []int{0, 1}})
	if len(got) != 1 {
		t.Fatalf("cross-source merge must happen: %v", got)
	}
}

func TestHACCoversAllPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	vecs := make([][]float32, 40)
	for i := range vecs {
		vecs[i] = []float32{rng.Float32() * 10, rng.Float32() * 10}
	}
	clusters := HAC(len(vecs), HACOptions{Linkage: AverageLinkage, Dist: euclidean(vecs), StopDist: 2})
	seen := map[int]bool{}
	for _, c := range clusters {
		for _, i := range c {
			if seen[i] {
				t.Fatalf("point %d appears in two clusters", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != len(vecs) {
		t.Fatalf("clusters cover %d of %d points", len(seen), len(vecs))
	}
}

func TestLinkageString(t *testing.T) {
	if SingleLinkage.String() != "single" || CompleteLinkage.String() != "complete" ||
		AverageLinkage.String() != "average" || Linkage(9).String() != "unknown" {
		t.Fatal("linkage names wrong")
	}
}
