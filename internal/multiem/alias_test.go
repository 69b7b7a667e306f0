package multiem

import (
	"math"
	"slices"
	"testing"
)

// aliasCounts tallies a matcher's graph nodes and centroid rows by how they
// store their rows.
type aliasCounts struct {
	singletons int // first nodes of one-member tuples: aliases
	owned      int // first nodes of larger tuples that own their words
	equal      int // first nodes of larger tuples with the first member's bits
	extra      int // later nodes: absorbed rows, or a v8 file's old versions
	extraOwned int // later nodes that own their words
	shared     int // centroid rows that are their tuple's last node's row
}

// checkAliases holds every node and centroid row of m to the aliasing rule
// (shard.nodeAlias): a tuple's first node is its first member's entity row —
// the same data-word offset — when it has that row's bits, which every
// one-member tuple's has, and otherwise owns its words, at an offset no
// entity row starts at; a later node is an entity row of its tuple's members
// where one has its bits, as every absorbed node does; and a centroid row is
// its tuple's last node's row when it has that row's bits, and otherwise
// owns its words.
func checkAliases(t *testing.T, when string, m *Matcher) aliasCounts {
	t.Helper()
	var c aliasCounts
	row, other := make([]float32, m.dim), make([]float32, m.dim)
	same := func() bool {
		return slices.EqualFunc(row, other, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) })
	}
	for s, sh := range m.shards {
		ents := map[int]int{}
		for i := range sh.entVecs.Len() {
			ents[sh.entVecs.Offset(i)] = i
		}
		nodes, seen := sh.index.Vectors(), map[int]bool{}
		last := map[int]int{}
		for n, id := range sh.index.IDs() {
			ts := sh.tuples.at(id)
			last[id] = n
			nodes.CopyTo(row, n)
			pos, alias := ents[nodes.Offset(n)]
			if !seen[id] {
				seen[id] = true
				sh.entVecs.CopyTo(other, ts.members[0])
				switch {
				case alias != same() || alias && pos != ts.members[0]:
					t.Fatalf("%s: shard %d's node %d, tuple %d's first, aliases its first member: %v; has its bits: %v", when, s, n, id, alias, same())
				case len(ts.members) == 1:
					c.singletons++
				case alias:
					c.equal++
				default:
					c.owned++
				}
				continue
			}
			c.extra++
			if !alias {
				c.extraOwned++
				for _, p := range ts.members {
					if sh.entVecs.CopyTo(other, p); same() {
						t.Fatalf("%s: shard %d's node %d, of tuple %d, owns the words of member row %d", when, s, n, id, p)
					}
				}
			} else if !slices.Contains(ts.members, pos) {
				sh.entVecs.CopyTo(other, pos)
				t.Fatalf("%s: shard %d's node %d, of tuple %d, is entity row %d, no member of it (same bits: %v)", when, s, n, id, pos, same())
			}
		}
		for l := range sh.tuples.Len() {
			cent := int(sh.tuples.at(l).cent)
			sh.cents.CopyTo(row, cent)
			nodes.CopyTo(other, last[l])
			alias := sh.cents.Offset(cent) == nodes.Offset(last[l])
			if alias != same() {
				t.Fatalf("%s: shard %d's tuple %d: centroid row is its last node's: %v; has its bits: %v", when, s, l, alias, same())
			}
			if alias {
				c.shared++
			} else if _, ok := ents[sh.cents.Offset(cent)]; ok {
				t.Fatalf("%s: shard %d's tuple %d: centroid row shares an entity row's words", when, s, l)
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

// TestSingletonNodeAliasesEntityRow: a shard's entity rows, graph nodes and
// centroid rows share one data arena, a node indexed for a one-member tuple
// is its member's entity row, an absorbed node its own, and a first node of a
// larger tuple owns its words (checkAliases). That holds after the build,
// after ingest (new singletons, absorptions, so absorbed nodes and moved
// centroids), after a reclamation of every shard and more ingest, and after
// a Save/Load round trip, which aliases the rows from their bits: the loaded
// matcher reports the EntityBytes and IndexBytes it was saved with.
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
	if c := checkAliases(t, "ingest", m); c.extra == 0 || c.extraOwned != 0 || !recentred(m) {
		t.Fatalf("ingest: %+v, want absorbed nodes, each an entity row, and moved centroids", c)
	}
	before := shardBytes(m)
	reclaimEveryShard(t, m, absorbRows(m, d, 40), func([]AddResult) {})
	checkAliases(t, "reclamation", m)
	ingest(8)
	if c := checkAliases(t, "ingest after reclamation", m); c.extra == 0 || c.extraOwned != 0 {
		t.Fatalf("ingest after reclamation: %+v, want absorbed nodes, each an entity row", c)
	}
	t.Logf("(entity, index) bytes %v before the reclamation, %v after it and more ingest", before, shardBytes(m))

	want := checkAliases(t, "saved", m)
	loaded := mustLoad(t, saveBytes(t, m), opt)
	if got := checkAliases(t, "loaded", loaded); got != want {
		t.Fatalf("loaded nodes %+v, saved %+v", got, want)
	}
	if got, want := shardBytes(loaded), shardBytes(m); !slices.Equal(got, want) {
		t.Fatalf("loaded shards report (entity, index) bytes %v, saved %v", got, want)
	}
}

// TestReclaimUpgradedState: a v8 file's superseded centroid versions stay
// nodes of their tuples that store their own words. A reclamation of the
// upgraded state keeps every node's sharing as it was — the old versions own
// their words, every absorbed node is its member's entity row — and leaves
// the shards with the entity and index bytes a load of its Save reports.
func TestReclaimUpgradedState(t *testing.T) {
	const shards = 2
	m := mustLoad(t, readFile(t, v8FixturePath(shards)+".bin", matcherFormatV8), dim16Opts(shards))
	before := checkAliases(t, "loaded", m)
	if before.extraOwned == 0 {
		t.Fatalf("loaded: %+v, want old centroid versions as nodes of their own", before)
	}
	// The first records of the file's matched tuples, which absorb into them.
	byID := mustGeo(t, 0.01, 5).EntityByID()
	var rows [][]string
	tuples, _ := m.Tuples()
	for _, ids := range tuples {
		if e, ok := byID[ids[0]]; ok && len(rows) < 8 {
			rows = append(rows, e.Values)
		}
	}
	reclaimEveryShard(t, m, rows, func([]AddResult) {})
	after := checkAliases(t, "reclaimed", m)
	if after.extraOwned != before.extraOwned {
		t.Fatalf("reclaimed: %+v, loaded %+v: the old versions' sharing changed", after, before)
	}
	loaded := mustLoad(t, saveBytes(t, m), dim16Opts(shards))
	if got, want := shardBytes(loaded), shardBytes(m); !slices.Equal(got, want) {
		t.Fatalf("the reclaimed state reports (entity, index) bytes %v, a load of its Save %v", want, got)
	}
}
