package multiem

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/datagen"
)

// The log carries the plan: these tests pin what recovery and followers do
// with the decisions a record holds — apply them without searching, and
// refuse them, before anything changes, when they do not belong to the state
// they are replayed over.

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

// TestReplaySearchesNothing: recovery and a follower's Apply reach the
// uncrashed matcher's exact state without one index search — every shard's
// search counters read after the replay what they read before it.
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
		for _, p := range records {
			if err := r.Apply(p); err != nil {
				t.Fatal(err)
			}
		}
		if after := shardSearches(follower); !slices.Equal(before, after) {
			t.Fatalf("shards=%d: follower apply searched: %v -> %v", shards, before, after)
		}
		if !bytes.Equal(saveBytes(t, follower), saveBytes(t, uncrashed)) {
			t.Fatalf("shards=%d: follower diverges from the uncrashed matcher", shards)
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
		assertMatchersIdentical(t, uncrashed, recovered, d)
	}
}

// TestPlanFromRecordRefuses: a record whose decisions do not belong to the
// state it meets is refused with ErrLogMismatch whichever field gives it
// away, and the refusal leaves the matcher exactly as it was — Save bytes,
// epoch and position — and able to take the genuine record afterwards.
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
		for _, p := range records[:upTo] {
			if err := r.Apply(p); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	// refused runs try against r and requires ErrLogMismatch and an untouched
	// matcher.
	refused := func(t *testing.T, r *Replicator, try func() error) {
		t.Helper()
		m := r.Matcher()
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
		{"local past the shard's tuples", func(m *Matcher, _ *batchRecord, d *addDecision) { d.local = m.shards[d.shard].tuples.len() }},
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
			c.mutate(r.Matcher(), &rec, &rec.decisions[row])
			refused(t, r, func() error { return r.Apply(encodeBatchRecord(&rec)) })
			if err := r.Apply(records[k]); err != nil {
				t.Fatalf("the genuine record after the refusal: %v", err)
			}
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
			_, err := r.Matcher().planFromRecord(&rec)
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
		m, applied := r.Matcher(), 0
		for _, p := range records {
			state, epoch := saveBytes(t, m), m.Epoch()
			err := r.Apply(p)
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
