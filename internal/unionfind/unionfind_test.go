package unionfind

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestSingletons(t *testing.T) {
	u := New(2)
	if u.Count() != 2 || u.Len() != 2 {
		t.Fatalf("count=%d len=%d", u.Count(), u.Len())
	}
	if u.Same(0, 1) {
		t.Fatal("fresh singletons must differ")
	}
	if u.Find(1) != 1 {
		t.Fatal("a fresh id must be its own root")
	}
}

func TestUnionTransitivity(t *testing.T) {
	u := New(3)
	u.Union(0, 1)
	u.Union(1, 2)
	if !u.Same(0, 2) {
		t.Fatal("transitivity: 0~1, 1~2 => 0~2")
	}
	if u.Count() != 1 {
		t.Fatalf("count = %d, want 1", u.Count())
	}
}

func TestUnionSameSetNoop(t *testing.T) {
	u := New(3)
	u.Union(1, 2)
	before := u.Count()
	u.Union(2, 1)
	if u.Count() != before {
		t.Fatal("union within one set must not change count")
	}
}

func TestSets(t *testing.T) {
	u := New(12)
	u.Union(3, 1)
	u.Union(1, 5)
	u.Union(11, 10)
	sets := u.Sets(2)
	want := [][]int{{1, 3, 5}, {10, 11}}
	if !reflect.DeepEqual(sets, want) {
		t.Fatalf("Sets(2) = %v, want %v", sets, want)
	}
	all := u.Sets(1)
	want = [][]int{{0}, {1, 3, 5}, {2}, {4}, {6}, {7}, {8}, {9}, {10, 11}}
	if !reflect.DeepEqual(all, want) {
		t.Fatalf("Sets(1) = %v, want %v", all, want)
	}
}

// Property: after random unions, Same agrees with a naive labelling.
func TestRandomizedAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 200
	u := New(n)
	label := make([]int, n)
	for i := range label {
		label[i] = i
	}
	relabel := func(from, to int) {
		for i := range label {
			if label[i] == from {
				label[i] = to
			}
		}
	}
	for step := 0; step < 300; step++ {
		a, b := rng.Intn(n), rng.Intn(n)
		u.Union(a, b)
		if label[a] != label[b] {
			relabel(label[a], label[b])
		}
	}
	distinct := map[int]bool{}
	for _, l := range label {
		distinct[l] = true
	}
	if u.Count() != len(distinct) {
		t.Fatalf("count = %d, naive says %d", u.Count(), len(distinct))
	}
	for trial := 0; trial < 500; trial++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if u.Same(a, b) != (label[a] == label[b]) {
			t.Fatalf("Same(%d,%d) disagrees with naive labelling", a, b)
		}
	}
}

func TestSetsMembersSorted(t *testing.T) {
	u := New(10)
	u.Union(9, 2)
	u.Union(2, 7)
	sets := u.Sets(2)
	if !reflect.DeepEqual(sets[0], []int{2, 7, 9}) {
		t.Fatalf("members must be sorted: %v", sets[0])
	}
}
