package unionfind

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: for any union sequence, Same is an equivalence relation
// (reflexive, symmetric, transitive on sampled triples) and Sets partitions
// the ids: every id exactly once, each set ascending, the sets ordered by
// their smallest member.
func TestQuickEquivalenceRelation(t *testing.T) {
	f := func(ops []struct{ A, B uint8 }) bool {
		u := New(256)
		for _, op := range ops {
			u.Union(int(op.A), int(op.B))
		}
		var ids []int
		seen := make([]bool, u.Len())
		prevMin := -1
		for _, set := range u.Sets(1) {
			if set[0] <= prevMin {
				return false
			}
			prevMin = set[0]
			for x, id := range set {
				if seen[id] || x > 0 && id <= set[x-1] || !u.Same(id, set[0]) {
					return false
				}
				seen[id] = true
			}
			ids = append(ids, set...)
		}
		// Partition covers every id exactly once.
		if len(ids) != u.Len() {
			return false
		}
		rng := rand.New(rand.NewSource(int64(len(ops))))
		for trial := 0; trial < 50; trial++ {
			a := ids[rng.Intn(len(ids))]
			b := ids[rng.Intn(len(ids))]
			c := ids[rng.Intn(len(ids))]
			if !u.Same(a, a) {
				return false
			}
			if u.Same(a, b) != u.Same(b, a) {
				return false
			}
			if u.Same(a, b) && u.Same(b, c) && !u.Same(a, c) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Count starts at n, equals the number of sets returned by
// Sets(1), and each union between different sets decrements it by exactly
// one.
func TestQuickCountConsistency(t *testing.T) {
	f := func(ops []struct{ A, B uint8 }) bool {
		u := New(256)
		if u.Count() != 256 {
			return false
		}
		for _, op := range ops {
			a, b := int(op.A), int(op.B)
			before := u.Count()
			wasSame := u.Same(a, b)
			u.Union(a, b)
			if wasSame && u.Count() != before {
				return false
			}
			if !wasSame && u.Count() != before-1 {
				return false
			}
		}
		return u.Count() == len(u.Sets(1))
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(10))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
