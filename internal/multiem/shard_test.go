package multiem

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/table"
)

// shardedGeo builds a matcher over the small Geo dataset with a fixed shard
// count.
func shardedGeo(t *testing.T, shards int) (*Matcher, *table.Dataset) {
	t.Helper()
	d := smallGeo(t)
	opt := geoOpts()
	opt.Shards = shards
	m, err := BuildMatcher(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

func TestGlobalTupleID(t *testing.T) {
	cases := [][2]int{{0, 0}, {0, 7}, {3, 0}, {5, 123456}, {maxSaneShards - 1, tupleLocalMask}}
	for _, c := range cases {
		id := globalTupleID(c[0], c[1])
		s, l := splitTupleID(id)
		if s != c[0] || l != c[1] {
			t.Fatalf("shard %d local %d round-tripped to (%d, %d)", c[0], c[1], s, l)
		}
	}
	if globalTupleID(0, 42) != 42 {
		t.Fatal("single-shard tuple IDs must be the plain local index")
	}
}

func TestRouteVec(t *testing.T) {
	vec := []float32{0.25, -1.5, 3.75, 0}
	if got := routeVec(vec, 1); got != 0 {
		t.Fatalf("routeVec with one shard = %d, want 0", got)
	}
	for _, n := range []int{2, 3, 8} {
		a, b := routeVec(vec, n), routeVec(vec, n)
		if a != b {
			t.Fatalf("routeVec not deterministic: %d vs %d", a, b)
		}
		if a < 0 || a >= n {
			t.Fatalf("routeVec(%d shards) = %d out of range", n, a)
		}
	}
	// Routing should actually spread: over many distinct vectors every shard
	// of a small pool must receive something.
	const n = 4
	seen := make([]bool, n)
	for i := 0; i < 256; i++ {
		v := []float32{float32(i), float32(i) * 0.5, -float32(i)}
		seen[routeVec(v, n)] = true
	}
	for s, ok := range seen {
		if !ok {
			t.Fatalf("shard %d received no vectors out of 256", s)
		}
	}
}

func TestMatcherShardsOption(t *testing.T) {
	m, _ := shardedGeo(t, 3)
	if m.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", m.Shards())
	}
	if s := m.Stats(); s.Shards != 3 {
		t.Fatalf("Stats.Shards = %d, want 3", s.Shards)
	}
	auto, _ := shardedGeo(t, 0)
	if auto.Shards() < 1 {
		t.Fatalf("auto shard count %d", auto.Shards())
	}
	opt := geoOpts()
	opt.Shards = maxSaneShards + 1
	if err := opt.Validate(); err == nil {
		t.Fatal("Validate accepted an absurd shard count")
	}
}

// tupleKeys canonicalizes a matcher's matched tuples for cross-layout
// comparison: global tuple IDs depend on the shard layout, membership must
// not.
func tupleKeys(m *Matcher) map[string]bool {
	tuples, _ := m.Tuples()
	keys := make(map[string]bool, len(tuples))
	for _, tu := range tuples {
		keys[table.TupleKey(tu)] = true
	}
	return keys
}

// ingestRows returns deterministic synthetic rows for a 3-attribute schema:
// a mix of novel records and near-duplicates of earlier novel records, so
// both the singleton and the absorption path are exercised.
func ingestRows(batch, n int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		kind := (batch*n + i) % 3
		base := (batch*n + i) / 3
		switch kind {
		case 0:
			rows[i] = []string{fmt.Sprintf("depot %d riverside", base), fmt.Sprintf("%d.5", base%90), "11.25"}
		case 1: // near-duplicate of the kind-0 row with the same base
			rows[i] = []string{fmt.Sprintf("depot %d riverside", base), fmt.Sprintf("%d.5", base%90), "11.26"}
		default:
			rows[i] = []string{fmt.Sprintf("isolated outpost %d", base), "0.0", fmt.Sprintf("-%d.75", base%80)}
		}
	}
	return rows
}

// TestShardedAddDeterminism: partitioned, concurrently applied AddRecords on
// a many-shard matcher must produce exactly the same tuple membership as the
// single-shard matcher — sharding is an execution layout, not a semantics
// change.
func TestShardedAddDeterminism(t *testing.T) {
	m1, d := shardedGeo(t, 1)
	m4, _ := shardedGeo(t, 4)

	if k1, k4 := tupleKeys(m1), tupleKeys(m4); len(k1) != len(k4) {
		t.Fatalf("fresh matchers disagree: %d vs %d matched tuples", len(k1), len(k4))
	}

	byID := d.EntityByID()
	res := m1.Result()
	for batch := 0; batch < 6; batch++ {
		rows := ingestRows(batch, 8)
		// Mix in exact copies of known tuple members so absorption into
		// pipeline tuples is exercised too.
		rows = append(rows, byID[res.Tuples[batch%len(res.Tuples)][0]].Values)
		a1, err1 := m1.AddRecords(rows)
		a4, err4 := m4.AddRecords(rows)
		if err1 != nil || err4 != nil {
			t.Fatalf("AddRecords: %v / %v", err1, err4)
		}
		for i := range a1 {
			if a1[i].EntityID != a4[i].EntityID || a1[i].Absorbed != a4[i].Absorbed || a1[i].Distance != a4[i].Distance {
				t.Fatalf("batch %d row %d: single-shard %+v vs sharded %+v", batch, i, a1[i], a4[i])
			}
		}
	}

	k1, k4 := tupleKeys(m1), tupleKeys(m4)
	if len(k1) != len(k4) {
		t.Fatalf("matched tuple counts diverged: %d vs %d", len(k1), len(k4))
	}
	for key := range k1 {
		if !k4[key] {
			t.Fatalf("tuple %s present in single-shard but not sharded matcher", key)
		}
	}
	s1, s4 := m1.Stats(), m4.Stats()
	if s1.Entities != s4.Entities || s1.Tuples != s4.Tuples || s1.Matched != s4.Matched || s1.Singletons != s4.Singletons {
		t.Fatalf("stats diverged:\n  1 shard  %+v\n  4 shards %+v", s1, s4)
	}
}

// candidateKey canonicalizes one Match candidate without its layout-dependent
// tuple ID.
func candidateKey(c Candidate) string {
	return fmt.Sprintf("%v@%g", c.EntityIDs, c.Distance)
}

// TestShardedMatchParity: fan-out Match over 4 shards must return the same
// candidates at the same distances as the single-shard matcher. Distances are
// compared exactly: both layouts compute them with the same query-bound
// kernel over identically derived centroids.
func TestShardedMatchParity(t *testing.T) {
	m1, d := shardedGeo(t, 1)
	m4, _ := shardedGeo(t, 4)
	byID := d.EntityByID()
	res := m1.Result()

	for _, tuple := range res.Tuples[:min(len(res.Tuples), 20)] {
		values := byID[tuple[0]].Values
		c1, err1 := m1.Match(values, 5)
		c4, err4 := m4.Match(values, 5)
		if err1 != nil || err4 != nil {
			t.Fatalf("Match: %v / %v", err1, err4)
		}
		if len(c1) != len(c4) {
			t.Fatalf("entity %d: %d candidates single-shard, %d sharded", tuple[0], len(c1), len(c4))
		}
		k1 := make([]string, len(c1))
		k4 := make([]string, len(c4))
		for i := range c1 {
			k1[i], k4[i] = candidateKey(c1[i]), candidateKey(c4[i])
		}
		// Equal-distance candidates may legitimately order differently
		// across layouts (ties break on layout-dependent IDs); compare as
		// sorted sets.
		sort.Strings(k1)
		sort.Strings(k4)
		for i := range k1 {
			if k1[i] != k4[i] {
				t.Fatalf("entity %d: candidate sets differ:\n  1 shard  %v\n  4 shards %v", tuple[0], k1, k4)
			}
		}
	}
}

// TestShardedSaveLoadRoundTrip: a 4-shard matcher must round-trip with its
// shard topology, per-shard stats, and global tuple IDs intact — and keep
// ingesting identically afterwards (per-shard RNG streams replay).
func TestShardedSaveLoadRoundTrip(t *testing.T) {
	m, d := shardedGeo(t, 4)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	opt := geoOpts()
	opt.Shards = 9 // must be ignored: the file owns the layout
	loaded, err := LoadMatcher(bytes.NewReader(buf.Bytes()), opt)
	if err != nil {
		t.Fatalf("LoadMatcher: %v", err)
	}
	if loaded.Shards() != 4 {
		t.Fatalf("loaded shard count %d, want the saved 4", loaded.Shards())
	}
	_, saved, _ := m.StatsWithShards()
	_, restored, _ := loaded.StatsWithShards()
	if ss, ls := fmt.Sprintf("%+v", saved), fmt.Sprintf("%+v", restored); ss != ls {
		t.Fatalf("per-shard stats differ after round-trip:\n  saved  %s\n  loaded %s", ss, ls)
	}

	byID := d.EntityByID()
	values := byID[m.Result().Tuples[0][0]].Values
	w, errW := m.Match(values, 3)
	g, errG := loaded.Match(values, 3)
	if errW != nil || errG != nil {
		t.Fatalf("Match: %v / %v", errW, errG)
	}
	if fmt.Sprintf("%+v", w) != fmt.Sprintf("%+v", g) {
		t.Fatalf("Match differs after round-trip (tuple IDs must be stable):\n  saved  %+v\n  loaded %+v", w, g)
	}

	for batch := 0; batch < 3; batch++ {
		rows := ingestRows(batch, 6)
		a, errA := m.AddRecords(rows)
		b, errB := loaded.AddRecords(rows)
		if errA != nil || errB != nil {
			t.Fatalf("AddRecords: %v / %v", errA, errB)
		}
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Fatalf("batch %d: AddRecords diverges after round-trip:\n  saved  %+v\n  loaded %+v", batch, a, b)
		}
	}
}

// TestAddRecordsIntraBatchChaining: a batch full of mutual duplicates must
// form one tuple (later copies chain into the tuple the batch itself is
// forming), not a pile of singletons — and identically for every shard
// count, since chaining runs before the batch is partitioned.
func TestAddRecordsIntraBatchChaining(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m, _ := shardedGeo(t, shards)
			before := m.Stats()
			dup := []string{"brand new landmark xyzzy", "12.5", "-33.25"}
			other := []string{"utterly unrelated qqfx", "88.0", "4.5"}
			adds, err := m.AddRecords([][]string{dup, other, dup, dup})
			if err != nil {
				t.Fatalf("AddRecords: %v", err)
			}
			if adds[0].Absorbed || adds[1].Absorbed {
				t.Fatalf("first occurrences must start tuples: %+v", adds[:2])
			}
			for _, i := range []int{2, 3} {
				if !adds[i].Absorbed || adds[i].Tuple != adds[0].Tuple {
					t.Fatalf("copy %d did not chain into the batch tuple: %+v (want tuple %d)", i, adds[i], adds[0].Tuple)
				}
			}
			after := m.Stats()
			if after.Tuples != before.Tuples+2 {
				t.Fatalf("batch created %d tuples, want 2", after.Tuples-before.Tuples)
			}
			if after.Matched != before.Matched+1 {
				t.Fatalf("chained duplicates did not form a matched tuple: %+v -> %+v", before, after)
			}
			cands, err := m.Match(dup, 1)
			if err != nil || len(cands) == 0 {
				t.Fatalf("Match: %v (%d candidates)", err, len(cands))
			}
			if cands[0].Tuple != adds[0].Tuple || len(cands[0].EntityIDs) != 3 {
				t.Fatalf("Match after chaining returned %+v, want 3-member tuple %d", cands[0], adds[0].Tuple)
			}
		})
	}
}

// TestShardCompaction: absorptions leave stale centroids in the shard index;
// once stale outnumber live 2x, the shard must rebuild so the only size
// signal operators see tracks reality.
func TestShardCompaction(t *testing.T) {
	m, d := shardedGeo(t, 1)
	byID := d.EntityByID()
	res := m.Result()

	// Each batch re-adds copies of distinct tuple members: every row is
	// absorbed and refreshes its tuple's centroid, leaving one stale index
	// entry per touched tuple per batch.
	width := min(len(res.Tuples), 40)
	rows := make([][]string, width)
	for i := 0; i < width; i++ {
		rows[i] = byID[res.Tuples[i][0]].Values
	}
	live := m.Stats().Live
	batches := (2*live)/width + 3 // enough absorptions to cross the 2x threshold
	for b := 0; b < batches; b++ {
		if _, err := m.AddRecords(rows); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		s := m.Stats()
		if s.Live != s.Tuples {
			t.Fatalf("Live %d != Tuples %d", s.Live, s.Tuples)
		}
		if stale := s.IndexSize - s.Live; stale > compactThreshold*s.Live {
			t.Fatalf("batch %d: stale %d exceeds %dx live %d without compaction", b, stale, compactThreshold, s.Live)
		}
	}
	_, ss, _ := m.StatsWithShards()
	if len(ss) != 1 || ss[0].Compactions == 0 {
		t.Fatalf("expected at least one compaction, got %+v", ss)
	}

	// Compaction must not lose any tuple: every representative still matches
	// its own tuple first.
	for i := 0; i < width; i++ {
		cands, err := m.Match(rows[i], 1)
		if err != nil || len(cands) == 0 {
			t.Fatalf("Match after compaction: %v (%d candidates)", err, len(cands))
		}
		if !containsID(cands[0].EntityIDs, res.Tuples[i][0]) {
			t.Fatalf("tuple %d lost after compaction: top candidate %+v", i, cands[0])
		}
	}
}

// TestCompactionKeepsSavedConfig: a compaction rebuilds a shard's index with
// the config that index was built or saved with, not the Options of whoever
// loaded it. A matcher and its save/load twin, loaded with another HNSW seed
// and M, take the same absorbing batches past a compaction on every shard and
// must still save identical bytes.
func TestCompactionKeepsSavedConfig(t *testing.T) {
	m, d := shardedGeo(t, 2)
	opt := geoOpts()
	opt.HNSW.Seed, opt.HNSW.M = 99, 6
	twin, err := LoadMatcher(bytes.NewReader(saveBytes(t, m)), opt)
	if err != nil {
		t.Fatal(err)
	}
	byID := d.EntityByID()
	res := m.Result()
	width := min(len(res.Tuples), 40)
	rows := make([][]string, width)
	for i := range rows {
		rows[i] = byID[res.Tuples[i][0]].Values
	}
	compacted := func() bool {
		_, ss, _ := m.StatsWithShards()
		for _, s := range ss {
			if s.Compactions == 0 {
				return false
			}
		}
		return true
	}
	for b := 0; !compacted(); b++ {
		if b == 100 {
			t.Fatal("no compaction on every shard after 100 batches")
		}
		want, err := m.AddRecords(rows)
		if err != nil {
			t.Fatal(err)
		}
		got, err := twin.AddRecords(rows)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("batch %d: twin placed the rows differently", b)
		}
	}
	if !bytes.Equal(saveBytes(t, twin), saveBytes(t, m)) {
		t.Fatal("after a compaction the twin loaded with other HNSW options saves other bytes")
	}
}

// TestShardedConcurrentHammer races Match + AddRecords + Stats + Tuples
// across a 4-shard matcher; under -race (CI runs this package with
// -cpu=1,4) it is the regression test for the lock-free epoch read path
// against concurrent ingest (see epoch_test.go for the atomicity hammers).
func TestShardedConcurrentHammer(t *testing.T) {
	m, d := shardedGeo(t, 4)
	byID := d.EntityByID()
	res := m.Result()

	var queries [][]string
	for _, tuple := range res.Tuples[:min(len(res.Tuples), 8)] {
		queries = append(queries, byID[tuple[0]].Values)
	}

	const readers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(i+r)%len(queries)]
				if cands, err := m.Match(q, 3); err != nil || len(cands) == 0 {
					t.Errorf("reader %d: no candidates mid-ingest (err %v)", r, err)
					return
				}
				switch i % 3 {
				case 0:
					_ = m.Stats()
				case 1:
					_, _, _ = m.StatsWithShards()
				default:
					m.Tuples()
				}
			}
		}(r)
	}

	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for b := 0; b < 15; b++ {
				rows := ingestRows(100*w+b, 4)
				rows = append(rows, queries[b%len(queries)])
				if _, err := m.AddRecords(rows); err != nil {
					t.Errorf("writer %d: AddRecords: %v", w, err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	if got := m.Stats().Entities; got != d.NumEntities()+2*15*5 {
		t.Fatalf("entity count %d after ingest, want %d", got, d.NumEntities()+2*15*5)
	}
}
