package multiem

import (
	"math"
	"slices"
	"testing"
)

// aliasCounts tallies a matcher's index nodes by how they store their rows.
type aliasCounts struct {
	singletons int // current nodes of one-member tuples: aliases
	owned      int // current nodes of larger tuples that own their words
	equal      int // current nodes of larger tuples with the first member's bits
	stale      int // superseded nodes that alias an entity row
}

// checkAliases holds every index node of m to the aliasing rule: a node is
// its tuple's first member's entity row — the same data-word offset — when
// it has that row's bits, which every current node of a one-member tuple
// has, and otherwise owns its words, at an offset no entity row starts at.
func checkAliases(t *testing.T, when string, m *Matcher) aliasCounts {
	t.Helper()
	var c aliasCounts
	row, first := make([]float32, m.dim), make([]float32, m.dim)
	for s, sh := range m.shards {
		ents := map[int]bool{}
		for i := range sh.entVecs.Len() {
			ents[sh.entVecs.Offset(i)] = true
		}
		nodes := sh.index.Vectors()
		for n, id := range sh.index.IDs() {
			ts := sh.tuples.at(id)
			nodes.CopyTo(row, n)
			sh.entVecs.CopyTo(first, ts.members[0])
			same := slices.EqualFunc(row, first, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) })
			alias := nodes.Offset(n) == sh.entVecs.Offset(ts.members[0])
			current := int(ts.node) == n
			switch {
			case current && len(ts.members) == 1 && !alias:
				t.Fatalf("%s: shard %d's node %d, of one-member tuple %d, has words of its own", when, s, n, id)
			case alias != same:
				t.Fatalf("%s: shard %d's node %d aliases tuple %d's first member: %v; has its bits: %v", when, s, n, id, alias, same)
			case !alias && ents[nodes.Offset(n)]:
				t.Fatalf("%s: shard %d's node %d, of tuple %d, shares another entity row's words", when, s, n, id)
			case current && len(ts.members) == 1:
				c.singletons++
			case current && alias:
				c.equal++
			case current:
				c.owned++
			case alias:
				c.stale++
			}
		}
	}
	t.Logf("%s: %+v", when, c)
	return c
}

// shardBytes returns each shard's EntityBytes and IndexBytes.
func shardBytes(m *Matcher) [][2]int {
	_, per, _ := m.StatsWithShards()
	out := make([][2]int, len(per))
	for s, ss := range per {
		out[s] = [2]int{ss.EntityBytes, ss.IndexBytes}
	}
	return out
}

// TestSingletonNodeAliasesEntityRow: a shard's entity rows and index nodes
// share one data arena, and a node indexed for a one-member tuple is its
// member's entity row, while a node of a larger tuple owns its words. That
// holds after the build, after ingest (new singletons, absorptions, so stale
// singleton nodes), after a compaction of every shard and more ingest, and
// after a Save/Load round trip, which aliases the nodes from their bits: the
// loaded matcher reports the EntityBytes and IndexBytes it was saved with.
func TestSingletonNodeAliasesEntityRow(t *testing.T) {
	d := mustGeo(t, 0.05, 5)
	opt := durOpts(2)
	m, err := BuildMatcher(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if c := checkAliases(t, "build", m); c.singletons == 0 || c.owned == 0 {
		t.Fatalf("build: %+v, want singletons and matched tuples", c)
	}
	ingest := func(seed int64) {
		for _, rows := range randomBatches(mustGeo(t, 0.05, 6), 12, 16, seed) {
			if _, err := m.AddRecords(rows); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(7)
	if c := checkAliases(t, "ingest", m); c.stale == 0 {
		t.Fatalf("ingest: %+v, want stale singleton nodes", c)
	}
	compactEveryShard(t, m, absorbRows(m, d, 40), func([]AddResult) {})
	checkAliases(t, "compaction", m)
	ingest(8)
	if c := checkAliases(t, "ingest after compaction", m); c.stale == 0 {
		t.Fatalf("ingest after compaction: %+v, want stale singleton nodes", c)
	}

	want := checkAliases(t, "saved", m)
	loaded := mustLoad(t, saveBytes(t, m), opt)
	if got := checkAliases(t, "loaded", loaded); got != want {
		t.Fatalf("loaded nodes %+v, saved %+v", got, want)
	}
	if got, want := shardBytes(loaded), shardBytes(m); !slices.Equal(got, want) {
		t.Fatalf("loaded shards report (entity, index) bytes %v, saved %v", got, want)
	}
}
