package hnsw

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vector"
)

// Property: for any random point set, (1) Search returns at most k results,
// (2) results are sorted by distance, (3) every returned id was inserted,
// and (4) the single nearest neighbour of an inserted point queried exactly
// is itself (distance 0 item ranked first).
func TestQuickSearchInvariants(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := 2 + int(nRaw)%150
		k := 1 + int(kRaw)%10
		rng := rand.New(rand.NewSource(seed))
		ix := New(8, Config{Seed: seed + 1})
		ids := map[int]bool{}
		vecs := make([][]float32, n)
		for i := 0; i < n; i++ {
			v := make([]float32, 8)
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			vecs[i] = vector.Normalize(v)
			if err := ix.Add(i*7, vecs[i]); err != nil {
				return false
			}
			ids[i*7] = true
		}
		q := vecs[rng.Intn(n)]
		res := ix.Search(q, k, 0)
		if len(res) > k {
			return false
		}
		for i, r := range res {
			if !ids[r.ID] {
				return false
			}
			if i > 0 && r.Dist < res[i-1].Dist {
				return false
			}
		}
		// Exact-self query: the closest returned distance must be ~0.
		if len(res) > 0 && res[0].Dist > 1e-4 {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: the visitSet never reports an unvisited id as visited within an
// epoch, and always reports a visited one.
func TestQuickVisitSet(t *testing.T) {
	f := func(marks []uint8, resets uint8) bool {
		var v visitSet
		for r := 0; r <= int(resets)%5; r++ {
			v.reset(256)
			seen := map[int32]bool{}
			for _, m := range marks {
				i := int32(m)
				was := v.visit(i)
				if was != seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(14))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestVisitSetEpochWrap(t *testing.T) {
	var v visitSet
	v.reset(4)
	v.epoch = ^uint32(0) // force wrap on next reset
	v.stamps[2] = v.epoch
	v.reset(4)
	if v.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", v.epoch)
	}
	if v.visit(2) {
		t.Fatal("stale stamp must not read as visited after wrap")
	}
}

// An index gains one node per Add and resets the build context's visit set
// on every one, so the set must grow geometrically: sizing it to exactly n
// reallocates (and zeroes 4n bytes) a hundred thousand times here.
func TestVisitSetGrowsGeometrically(t *testing.T) {
	var v visitSet
	reallocs := 0
	for n := 1; n <= 100_000; n++ {
		before := len(v.stamps)
		v.reset(n)
		if len(v.stamps) < n {
			t.Fatalf("reset(%d) left room for %d nodes", n, len(v.stamps))
		}
		if len(v.stamps) != before {
			reallocs++
		}
	}
	if reallocs > 20 {
		t.Fatalf("reset(1..100000) reallocated %d times, want <= 20", reallocs)
	}
}
