package unionfind

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: for any union sequence, Sets partitions the ids by their root:
// every id exactly once, in its first member's set, each set ascending, the
// sets ordered by their smallest member.
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
				if seen[id] || x > 0 && id <= set[x-1] || u.Find(id) != u.Find(set[0]) {
					return false
				}
				seen[id] = true
			}
			ids = append(ids, set...)
		}
		// Partition covers every id exactly once.
		return len(ids) == u.Len()
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
			wasSame := u.Find(a) == u.Find(b)
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
