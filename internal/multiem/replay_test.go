package multiem

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/table"
	"repro/internal/vector"
	"repro/internal/wal"
)

// The log carries the plan: these tests pin what recovery and followers do
// with the decisions a record holds — apply them without searching, and
// refuse them, publishing nothing, when they do not belong to the state they
// are replayed over.

// shardSearches reads every shard index's search counters.
func shardSearches(m *Matcher) [][3]uint64 {
	out := make([][3]uint64, len(m.shards))
	for s, sh := range m.shards {
		out[s][0], out[s][1], out[s][2] = sh.index.SearchStats()
	}
	return out
}

// loggedHistory ingests absorbing and creating batches into a WAL-attached
// primary over dir and into an in-memory twin, closes the primary's log, and
// returns the twin, what the primary acknowledged, and the log's record
// payloads.
func loggedHistory(t *testing.T, dir string, shards int, load func() (*Matcher, error)) (uncrashed *Matcher, acked []AddResult, records [][]byte) {
	t.Helper()
	d := smallGeo(t)
	primary, err := RecoverMatcher(WALConfig{Dir: dir, Fsync: "off"}, durOpts(shards), load)
	if err != nil {
		t.Fatal(err)
	}
	if uncrashed, err = load(); err != nil {
		t.Fatal(err)
	}
	absorbed, created := 0, 0
	for _, rows := range randomBatches(d, 8, 8, 5) {
		res, err := primary.AddRecords(rows)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := uncrashed.AddRecords(rows); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, res...)
		for _, r := range res {
			if r.Absorbed {
				absorbed++
			} else {
				created++
			}
		}
	}
	if absorbed == 0 || created == 0 {
		t.Fatalf("history absorbed %d rows and created %d tuples; it must do both", absorbed, created)
	}
	if err := primary.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	return uncrashed, acked, scanMirror(t, dir) // a durability directory is laid out like a mirror
}

// TestReplaySearchesNothing: recovery and a follower's round reach the
// uncrashed matcher's exact state without one index search — every shard's
// search counters read after the replay what they read before it — and both
// report what they replayed.
func TestReplaySearchesNothing(t *testing.T) {
	d := smallGeo(t)
	for _, shards := range []int{1, 4} {
		load := baseLoader(t, d, shards)
		dir := t.TempDir()
		uncrashed, _, records := loggedHistory(t, dir, shards, load)

		follower, err := load()
		if err != nil {
			t.Fatal(err)
		}
		r := NewReplicator(follower, 0)
		before := shardSearches(follower)
		if err := r.Apply(scanOf(records...)); err != nil {
			t.Fatal(err)
		}
		if after := shardSearches(follower); !slices.Equal(before, after) {
			t.Fatalf("shards=%d: follower apply searched: %v -> %v", shards, before, after)
		}
		if !bytes.Equal(saveBytes(t, follower), saveBytes(t, uncrashed)) {
			t.Fatalf("shards=%d: follower diverges from the uncrashed matcher", shards)
		}
		// One round, one publish; the follower has no log, and its catch-up
		// shows in the replay fields all the same.
		if st := follower.WALStats(); follower.Epoch() != uint64(len(records)) || st.Enabled || st.ReplayedBatches != int64(len(records)) ||
			st.ReplayedRows != 8*int64(len(records)) || st.ReplaySeconds <= 0 || len(st.ReplayShardBusySeconds) != shards {
			t.Fatalf("shards=%d: follower at epoch %d reports %+v; want %d batches of 8 rows", shards, follower.Epoch(), st, len(records))
		}

		var base *Matcher
		recovered, err := RecoverMatcher(WALConfig{Dir: dir, Fsync: "off"}, durOpts(shards), func() (*Matcher, error) {
			m, err := load()
			if err == nil {
				base, before = m, shardSearches(m)
			}
			return m, err
		})
		if err != nil {
			t.Fatal(err)
		}
		defer recovered.CloseWAL()
		if after := shardSearches(recovered); recovered != base || !slices.Equal(before, after) {
			t.Fatalf("shards=%d: recovery searched: %v -> %v", shards, before, after)
		}
		if st := recovered.WALStats(); st.ReplayedBatches != int64(len(records)) || st.ReplayedRows != 8*int64(len(records)) || st.ReplaySeconds <= 0 {
			t.Fatalf("shards=%d: recovery reports %d batches, %d rows in %vs; want %d batches of 8 rows", shards, st.ReplayedBatches, st.ReplayedRows, st.ReplaySeconds, len(records))
		}
		// The base came out of a matcher file: recovery reports that half too.
		if st := recovered.WALStats(); st.LoadBytes <= 0 || st.LoadSeconds <= 0 {
			t.Fatalf("shards=%d: recovery reports a load of %d bytes in %vs", shards, st.LoadBytes, st.LoadSeconds)
		}
		assertMatchersIdentical(t, uncrashed, recovered, d)
	}
}

// TestPlanFromRecordRefuses: a record whose decisions do not belong to the
// state it meets is refused with ErrLogMismatch whichever field gives it
// away, and the refusal leaves the matcher exactly as it was — Save bytes,
// epoch and position — and refusing, the genuine record included, until a
// resync replaces it.
func TestPlanFromRecordRefuses(t *testing.T) {
	d := smallGeo(t)
	const shards = 2
	load := baseLoader(t, d, shards)
	dir := t.TempDir()
	_, _, records := loggedHistory(t, dir, shards, load)

	// The record under test: the first that absorbs a row, and that row.
	k, row := -1, -1
	for i, p := range records {
		rec, err := decodeBatchRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		for j, dec := range rec.decisions {
			if dec.absorb && k < 0 {
				k, row = i, j
			}
		}
	}
	if k < 0 {
		t.Fatal("no record absorbs a row")
	}

	// follower returns a replica of base standing just before record upTo.
	follower := func(base func() (*Matcher, error), upTo int) *Replicator {
		m, err := base()
		if err != nil {
			t.Fatal(err)
		}
		r := NewReplicator(m, 0)
		if err := r.Apply(scanOf(records[:upTo]...)); err != nil {
			t.Fatal(err)
		}
		return r
	}
	// refused runs try against r and requires ErrLogMismatch and an untouched
	// matcher.
	refused := func(t *testing.T, r *Replicator, try func() error) {
		t.Helper()
		m := r.m
		state, epoch, next := saveBytes(t, m), m.Epoch(), r.NextSeq()
		err := try()
		if !errors.Is(err, ErrLogMismatch) {
			t.Fatalf("got %v, want ErrLogMismatch", err)
		}
		t.Log(err)
		if !bytes.Equal(saveBytes(t, m), state) || m.Epoch() != epoch || r.NextSeq() != next {
			t.Fatalf("the refusal moved the matcher: epoch %d -> %d, next seq %d -> %d", epoch, m.Epoch(), next, r.NextSeq())
		}
	}

	cases := []struct {
		name   string
		mutate func(m *Matcher, rec *batchRecord, d *addDecision)
	}{
		{"local past the shard's tuples", func(m *Matcher, _ *batchRecord, d *addDecision) { d.local = m.shards[d.shard].tuples.Len() }},
		{"another shard count", func(_ *Matcher, rec *batchRecord, _ *addDecision) { rec.nShards = shards + 1 }},
		{"distance NaN", func(_ *Matcher, _ *batchRecord, d *addDecision) { d.dist = float32(math.NaN()) }},
		{"distance beyond M", func(m *Matcher, _ *batchRecord, d *addDecision) { d.dist = m.opt.M + 0.01 }},
		{"distance off by 1e-3", func(_ *Matcher, _ *batchRecord, d *addDecision) { d.dist -= 1e-3 }},
		{"no-text row absorbed", func(_ *Matcher, rec *batchRecord, _ *addDecision) { rec.rows[row] = []string{"", "1.0", "2.0"} }},
		{"row of another schema", func(_ *Matcher, rec *batchRecord, _ *addDecision) { rec.rows[row] = rec.rows[row][:2] }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := follower(load, k)
			rec, err := decodeBatchRecord(records[k])
			if err != nil {
				t.Fatal(err)
			}
			c.mutate(r.m, &rec, &rec.decisions[row])
			refused(t, r, func() error { return r.Apply(scanOf(encodeBatchRecord(&rec))) })
			refused(t, r, func() error { return r.Apply(scanOf(records[k])) })
		})
	}

	// A shard the matcher does not have cannot be written down (the target
	// encoding folds it into the local index), so it meets planFromRecord
	// undecoded.
	t.Run("shard past the matcher's", func(t *testing.T) {
		r := follower(load, k)
		rec, err := decodeBatchRecord(records[k])
		if err != nil {
			t.Fatal(err)
		}
		rec.decisions[row].shard = shards
		refused(t, r, func() error {
			_, err := r.m.planFromRecord(&rec)
			return err
		})
	})

	// The whole log over a base built from another seed, same schema:
	// creations replay anywhere, the first absorption gives the base away.
	t.Run("another base state", func(t *testing.T) {
		other, err := datagen.GenerateByName("Geo", 0.3, 12)
		if err != nil {
			t.Fatal(err)
		}
		raw := saveBytes(t, buildBase(t, other, shards))
		otherBase := func() (*Matcher, error) { return LoadMatcher(bytes.NewReader(raw), durOpts(shards)) }
		r := follower(otherBase, 0)
		m, applied := r.m, 0
		for _, p := range records {
			state, epoch := saveBytes(t, m), m.Epoch()
			err := r.Apply(scanOf(p))
			if err == nil {
				applied++
				continue
			}
			if !errors.Is(err, ErrLogMismatch) {
				t.Fatalf("record %d: got %v, want ErrLogMismatch", applied, err)
			}
			if !bytes.Equal(saveBytes(t, m), state) || m.Epoch() != epoch || r.NextSeq() != uint64(applied) {
				t.Fatalf("record %d: the refusal moved the matcher", applied)
			}
			break
		}
		if applied == len(records) {
			t.Fatal("the log replayed over a foreign base without complaint")
		}
		if _, err := RecoverMatcher(WALConfig{Dir: dir, Fsync: "off"}, durOpts(shards), otherBase); !errors.Is(err, ErrLogMismatch) {
			t.Fatalf("RecoverMatcher over a foreign base: %v, want ErrLogMismatch", err)
		}
	})
}

// TestFollowerRoundRefusal: a follower round over a 2-shard log whose batch k
// misstates one decision on shard 1 alone is refused, and although shard 0's
// stream may have applied batch k and beyond, nothing of the round is
// published — not even the batches before k: Save bytes, epoch and position
// stay where the round found them. The replicator then refuses every later
// round, the genuine log included, and promotion too.
func TestFollowerRoundRefusal(t *testing.T) {
	d := smallGeo(t)
	const shards = 2
	load := baseLoader(t, d, shards)
	_, _, records := loggedHistory(t, t.TempDir(), shards, load)

	k, row := -1, -1
	for i, p := range records[1:] {
		rec, err := decodeBatchRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		for j, dec := range rec.decisions {
			if dec.absorb && dec.shard == 1 && k < 0 {
				k, row = i+1, j
			}
		}
	}
	if k < 0 {
		t.Fatal("no record past the first absorbs a row on shard 1")
	}
	rec, err := decodeBatchRecord(records[k])
	if err != nil {
		t.Fatal(err)
	}
	rec.decisions[row].dist -= 1e-3
	doctored := slices.Clone(records)
	doctored[k] = encodeBatchRecord(&rec)

	m, err := load()
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplicator(m, 0)
	state, epoch := saveBytes(t, m), m.Epoch()
	want := fmt.Sprintf("apply logged batch %d: %v: row %d:", k, ErrLogMismatch, row)
	for _, round := range [][][]byte{doctored, records} {
		if err := r.Apply(scanOf(round...)); !errors.Is(err, ErrLogMismatch) || !strings.Contains(err.Error(), want) {
			t.Fatalf("got %v, want %q", err, want)
		}
		if !bytes.Equal(saveBytes(t, m), state) || m.Epoch() != epoch || r.NextSeq() != 0 {
			t.Fatalf("the refused round moved the follower: epoch %d -> %d, next seq %d", epoch, m.Epoch(), r.NextSeq())
		}
	}
	if err := r.Promote(WALConfig{Dir: t.TempDir(), Fsync: "off"}); !errors.Is(err, ErrLogMismatch) {
		t.Fatalf("Promote after a refused round: %v, want ErrLogMismatch", err)
	}
}

// skewedHistory ingests, in batches of batchRows, a history whose one
// compaction falls on shard 0 alone — mixed batches, then batches of exact
// duplicates of shard 0's base tuples until that shard rebuilds its index,
// then tail mixed batches again — into both matchers, and returns how many
// batches and rows that took, the batches after which shard 0 compacted, and
// how many index nodes those compactions discard that a replay of the whole
// history over the base never links: every node shard 0 appended from the
// base's linked index on, up to the last compaction.
func skewedHistory(t *testing.T, d *table.Dataset, batchRows, tail int, primary, uncrashed *Matcher) (batches, rows int, compactedAfter []uint64, unlinked int64) {
	t.Helper()
	linked := uncrashed.shards[0].index.Len() // the base's index, linked at load
	add := func(batch [][]string) {
		sh := uncrashed.shards[0]
		before, indexLen := sh.compactions, sh.index.Len()
		var res []AddResult
		for _, m := range []*Matcher{primary, uncrashed} {
			var err error
			if res, err = m.AddRecords(batch); err != nil {
				t.Fatal(err)
			}
		}
		if sh.compactions > before {
			// The batch appended one node per shard-0 tuple it created or
			// absorbed into; the compaction discarded those with the rest.
			touched := map[int]bool{}
			for _, r := range res {
				if s, _ := splitTupleID(r.Tuple); s == 0 {
					touched[r.Tuple] = true
				}
			}
			unlinked += int64(indexLen + len(touched) - linked)
			linked = 0 // the rebuilt index is appended and not linked
			compactedAfter = append(compactedAfter, uint64(batches))
		}
		batches, rows = batches+1, rows+len(batch)
	}
	for _, batch := range randomBatches(d, 3, batchRows, 17) {
		add(batch)
	}
	byID := d.EntityByID()
	var dups [][]string // one member of every base tuple of shard 0
	sh := uncrashed.shards[0]
	sh.tuples.each(func(ts *tupleState) {
		if e, ok := byID[sh.entIDs[ts.members[0]]]; ok {
			dups = append(dups, e.Values)
		}
	})
	for next := 0; uncrashed.shards[0].compactions == 0; {
		if rows > 50*len(dups) {
			t.Fatalf("shard 0 has not compacted after %d rows", rows)
		}
		batch := make([][]string, batchRows)
		for i := range batch {
			batch[i], next = dups[next%len(dups)], next+1
		}
		add(batch)
	}
	for _, batch := range randomBatches(d, tail, batchRows, 18) {
		add(batch)
	}
	for s, sh := range uncrashed.shards {
		if (sh.compactions > 0) != (s == 0) {
			t.Fatalf("shard %d compacted %d times; the history wants shard 0 alone to", s, sh.compactions)
		}
	}
	return batches, rows, compactedAfter, unlinked
}

// TestReplayStreamsEqualLive: recovery's per-shard streams, which join only at
// the end of the log, rebuild what live ingest built joining after every
// batch — Save bytes, the next entity ID and the replayed counts — at every
// shard count, from one-row batches (every shard sees every batch, most have
// no share of it) to batches of 300 rows, across a compaction on one shard
// only — whose stream never links a node that compaction discards, and no
// other stream skips one — and with a torn record closing the log.
func TestReplayStreamsEqualLive(t *testing.T) {
	d := smallGeo(t)
	for _, shards := range []int{1, 2, 3} {
		load := baseLoader(t, d, shards)
		for _, batchRows := range []int{1, 6, 16, 300} {
			t.Run(fmt.Sprintf("shards=%d/rows=%d", shards, batchRows), func(t *testing.T) {
				dir := t.TempDir()
				cfg := WALConfig{Dir: dir, Fsync: "off"}
				primary, err := RecoverMatcher(cfg, durOpts(shards), load)
				if err != nil {
					t.Fatal(err)
				}
				uncrashed, err := load()
				if err != nil {
					t.Fatal(err)
				}
				batches, rows, _, unlinked := skewedHistory(t, d, batchRows, 3, primary, uncrashed)

				// One more batch reaches the log only in part.
				seg := wal.SegmentFile(LogDir(dir), 1)
				whole, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := primary.AddRecords(ingestRows(0, batchRows)); err != nil {
					t.Fatal(err)
				}
				if err := primary.CloseWAL(); err != nil {
					t.Fatal(err)
				}
				torn, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(seg, (whole.Size()+torn.Size())/2); err != nil {
					t.Fatal(err)
				}

				recovered, err := RecoverMatcher(cfg, durOpts(shards), load)
				if err != nil {
					t.Fatal(err)
				}
				defer recovered.CloseWAL()
				if !bytes.Equal(saveBytes(t, recovered), saveBytes(t, uncrashed)) {
					t.Fatal("recovered Save bytes differ from the uncrashed matcher's")
				}
				if recovered.nextID != uncrashed.nextID {
					t.Fatalf("recovered nextID %d, uncrashed %d", recovered.nextID, uncrashed.nextID)
				}
				st := recovered.WALStats()
				if st.ReplayedBatches != int64(batches) || st.ReplayedRows != int64(rows) || st.NextSeq != uint64(batches) {
					t.Fatalf("recovery reports %d batches, %d rows, next seq %d; want %d batches of %d rows", st.ReplayedBatches, st.ReplayedRows, st.NextSeq, batches, batchRows)
				}
				// Where the time went: every stage worked, none longer than the
				// replay lasted.
				busy := append([]float64{st.ReplayReaderBusySeconds}, st.ReplayShardBusySeconds...)
				if len(busy) != 1+shards {
					t.Fatalf("%d shard streams reported, want %d", len(st.ReplayShardBusySeconds), shards)
				}
				for i, b := range busy {
					if b <= 0 || b > st.ReplaySeconds {
						t.Fatalf("stage %d (0 = reader) busy %vs of a %vs replay", i, b, st.ReplaySeconds)
					}
				}
				// The stream of the shard that compacted skipped the link of
				// every node the compaction discarded — a count the log alone
				// fixes — and no other stream skipped any.
				rs := recovered.replayed.Load()
				for s := 0; s < shards; s++ {
					var want int64
					if s == 0 {
						want = unlinked
					}
					if rs.skipped[s] != want || (rs.skipped[s] > 0) != (s == 0) {
						t.Fatalf("shard %d: a compaction discarded %d nodes unlinked, want %d (> 0 on shard 0 alone)", s, rs.skipped[s], want)
					}
				}
				if st.ReplaySkippedLinks != unlinked {
					t.Fatalf("WALStats reports %d skipped links, want %d", st.ReplaySkippedLinks, unlinked)
				}
			})
		}
	}
}

// TestReplayEndsOnCompaction: a log whose last batch compacts a shard leaves
// that shard's rebuilt index appended and not linked when the list ends;
// the stream links it then, and recovery publishes the uncrashed graph.
func TestReplayEndsOnCompaction(t *testing.T) {
	d := smallGeo(t)
	const shards = 2
	load := baseLoader(t, d, shards)
	cfg := WALConfig{Dir: t.TempDir(), Fsync: "off"}
	primary, err := RecoverMatcher(cfg, durOpts(shards), load)
	if err != nil {
		t.Fatal(err)
	}
	uncrashed, err := load()
	if err != nil {
		t.Fatal(err)
	}
	batches, _, compactedAfter, _ := skewedHistory(t, d, 16, 0, primary, uncrashed)
	if err := primary.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(compactedAfter, []uint64{uint64(batches - 1)}) {
		t.Fatalf("shard 0 compacted after batches %v of %d; want after the last alone", compactedAfter, batches)
	}
	recovered, err := RecoverMatcher(cfg, durOpts(shards), load)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.CloseWAL()
	if !bytes.Equal(saveBytes(t, recovered), saveBytes(t, uncrashed)) {
		t.Fatal("recovered Save bytes differ from the uncrashed matcher's")
	}
}

// TestFollowerRoundsCrossCompaction: a follower that catches up on a log in
// rounds — one ending just before the batch that compacts shard 0, one
// holding that batch alone, one holding the rest — stands where a live twin
// given the same batches stands at the end of every round: each round links
// what it appended before it publishes. Only the round that holds the
// compaction skips a link.
func TestFollowerRoundsCrossCompaction(t *testing.T) {
	d := smallGeo(t)
	const shards = 2
	load := baseLoader(t, d, shards)
	dir := t.TempDir()
	primary, err := RecoverMatcher(WALConfig{Dir: dir, Fsync: "off"}, durOpts(shards), load)
	if err != nil {
		t.Fatal(err)
	}
	uncrashed, err := load()
	if err != nil {
		t.Fatal(err)
	}
	batches, _, compactedAfter, _ := skewedHistory(t, d, 16, 3, primary, uncrashed)
	if err := primary.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if len(compactedAfter) != 1 {
		t.Fatalf("shard 0 compacted after batches %v; want once", compactedAfter)
	}
	records := scanMirror(t, dir)
	if len(records) != batches {
		t.Fatalf("the log holds %d records, want %d", len(records), batches)
	}

	follower, err := load()
	if err != nil {
		t.Fatal(err)
	}
	twin, err := load()
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplicator(follower, 0)
	c := int(compactedAfter[0])
	var skipped int64
	for _, end := range []int{c, c + 1, batches} {
		round := records[r.NextSeq():end]
		if err := r.Apply(scanOf(round...)); err != nil {
			t.Fatal(err)
		}
		for _, p := range round {
			rec, err := decodeBatchRecord(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := twin.AddRecords(rec.rows); err != nil {
				t.Fatal(err)
			}
		}
		if r.NextSeq() != uint64(end) {
			t.Fatalf("the follower stands at seq %d, want %d", r.NextSeq(), end)
		}
		if !bytes.Equal(saveBytes(t, follower), saveBytes(t, twin)) {
			t.Fatalf("the round ending at seq %d: follower Save bytes differ from the live twin's", end)
		}
		got := follower.WALStats().ReplaySkippedLinks - skipped
		skipped += got
		if holds := c < end && c >= end-len(round); (got > 0) != holds {
			t.Fatalf("the round ending at seq %d skipped %d links; it holds the compaction: %v", end, got, holds)
		}
	}
}

// perturbCentroid nudges the centroid of one tuple of a freshly loaded base,
// so that a logged distance to it no longer holds: the nudged vector becomes
// the tuple's current node, as a centroid refresh would index it.
func perturbCentroid(m *Matcher, shard, local int) {
	sh := m.shards[shard]
	c := sh.centroidAt(make([]float32, m.dim), local)
	for i := range c {
		c[i] *= 1 + 0.15*float32(i%2)
	}
	sh.index.Append(local, vector.Normalize(c), vector.Ref{})
	sh.tuples.mut(local).node = int32(sh.index.Len() - 1)
	sh.index.Link()
}

// TestReplayRefusalDeterministic: over a base that differs from the log's in
// one tuple of shard 1, first absorbed into by batch k, and one of shard 0,
// first absorbed into by batch k+2, either stream can meet its mismatch first
// — and every run refuses with batch k's, returns no matcher, leaves no
// goroutine behind and writes nothing, so the genuine base recovers the
// directory afterwards.
func TestReplayRefusalDeterministic(t *testing.T) {
	d := smallGeo(t)
	const shards = 2
	load := baseLoader(t, d, shards)
	dir := t.TempDir()
	uncrashed, _, records := loggedHistory(t, dir, shards, load)

	// Each base tuple's first absorption, by shard and batch.
	base, err := load()
	if err != nil {
		t.Fatal(err)
	}
	type target struct{ local, row int }
	first := [shards]map[int]target{{}, {}} // shard -> batch -> a tuple first touched there
	seen := map[[2]int]bool{}
	for b, p := range records {
		rec, err := decodeBatchRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		for row, dec := range rec.decisions {
			if key := [2]int{dec.shard, dec.local}; dec.absorb && dec.local < base.shards[dec.shard].tuples.Len() && !seen[key] {
				seen[key] = true
				if _, ok := first[dec.shard][b]; !ok {
					first[dec.shard][b] = target{dec.local, row}
				}
			}
		}
	}
	k := -1
	for b := range records {
		_, on1 := first[1][b]
		_, on0 := first[0][b+2]
		if on1 && on0 && k < 0 {
			k = b
		}
	}
	if k < 0 {
		t.Fatalf("no batch k first absorbs into a shard-1 tuple with batch k+2 doing so on shard 0: %v", first)
	}
	foreign := func() (*Matcher, error) {
		m, err := load()
		if err == nil {
			perturbCentroid(m, 1, first[1][k].local)
			perturbCentroid(m, 0, first[0][k+2].local)
		}
		return m, err
	}

	before, err := os.ReadFile(wal.SegmentFile(LogDir(dir), 1))
	if err != nil {
		t.Fatal(err)
	}
	goroutines := runtime.NumGoroutine()
	want := fmt.Sprintf("apply logged batch %d: %v: row %d:", k, ErrLogMismatch, first[1][k].row)
	for run := 0; run < 20; run++ {
		m, err := RecoverMatcher(WALConfig{Dir: dir, Fsync: "off"}, durOpts(shards), foreign)
		if m != nil || !errors.Is(err, ErrLogMismatch) || !strings.Contains(err.Error(), want) {
			t.Fatalf("run %d: matcher %v, error %v; want no matcher and %q", run, m != nil, err, want)
		}
	}
	// A finished goroutine leaves the count a moment after the WaitGroup that
	// announced it.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the refusals, %d after", goroutines, runtime.NumGoroutine())
		}
	}
	if after, err := os.ReadFile(wal.SegmentFile(LogDir(dir), 1)); err != nil || !bytes.Equal(before, after) {
		t.Fatalf("the refusals changed the log (err %v)", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("the refusals left %v in the directory beside log/ (err %v)", entries, err)
	}

	recovered, err := RecoverMatcher(WALConfig{Dir: dir, Fsync: "off"}, durOpts(shards), load)
	if err != nil {
		t.Fatalf("the genuine base after the refusals: %v", err)
	}
	defer recovered.CloseWAL()
	if !bytes.Equal(saveBytes(t, recovered), saveBytes(t, uncrashed)) {
		t.Fatal("the genuine base recovers a state that differs from the uncrashed matcher's")
	}
}

// TestReplayBoundsRowsInFlight: the reader runs ahead of the streams by rows,
// not batches — never more in flight than the window plus the batch that
// crossed it, whether the log holds /add bodies of 2 048 rows or of 16. The
// bound does not depend on the window's size, so the logs here replay under a
// 1 MiB window (1 024 rows at dim 256) rather than recovery's 16 MiB, which
// would need logs of more than 16 384 rows each — several seconds of tier-1
// time to ingest and replay.
func TestReplayBoundsRowsInFlight(t *testing.T) {
	d := smallGeo(t)
	const shards, windowBytes = 2, 1 << 20
	load := baseLoader(t, d, shards)
	for _, c := range []struct{ batches, batchRows int }{{2, 2048}, {100, 16}} {
		dir := t.TempDir()
		primary, err := RecoverMatcher(WALConfig{Dir: dir, Fsync: "off"}, durOpts(shards), load)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < c.batches; b++ {
			if _, err := primary.AddRecords(ingestRows(b, c.batchRows)); err != nil {
				t.Fatal(err)
			}
		}
		if err := primary.CloseWAL(); err != nil {
			t.Fatal(err)
		}

		m, err := load()
		if err != nil {
			t.Fatal(err)
		}
		l, err := wal.Open(LogDir(dir), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		batches, err := m.replayWAL(l.Replay, 0, windowBytes)
		l.Close()
		if err != nil {
			t.Fatal(err)
		}
		st := m.replayed.Load()
		if batches != int64(c.batches) || st.rows != int64(c.batches*c.batchRows) {
			t.Fatalf("replayed %d batches, %d rows; want %d of %d rows", batches, st.rows, c.batches, c.batchRows)
		}
		// Each log is longer than the window, and a stream needs several times
		// as long for a row as the reader, so an unbounded reader would show.
		window := windowBytes / (4 * m.dim)
		if c.batches*c.batchRows <= window {
			t.Fatalf("a log of %d rows fits the %d-row window", c.batches*c.batchRows, window)
		}
		if limit := window - 1 + c.batchRows; st.peakRows < c.batchRows || st.peakRows > limit {
			t.Fatalf("%d-row batches: %d rows in flight at the peak, want at most %d", c.batchRows, st.peakRows, limit)
		}
		if !bytes.Equal(saveBytes(t, m), saveBytes(t, primary)) {
			t.Fatalf("%d-row batches: replayed state differs from the primary's", c.batchRows)
		}
	}
}
