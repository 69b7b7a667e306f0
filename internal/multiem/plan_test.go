package multiem

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/vector"
)

// rowOutcome is what a plan settles for one row, in layout-independent
// terms: the pre-batch target by its smallest member entity ID (shard and
// local index encode the layout), the forming tuple by its batch index.
type rowOutcome struct {
	absorb bool
	target int // absorbing: the target tuple's minEntID; else -1
	dist   uint32
	batch  int // not absorbing: index into the plan's tuples; else -1
}

func outcomes(m *Matcher, p *batchPlan) []rowOutcome {
	out := make([]rowOutcome, len(p.rows))
	for i, d := range p.rows {
		out[i] = rowOutcome{absorb: d.absorb, target: -1, dist: math.Float32bits(d.dist), batch: -1}
		if d.absorb {
			out[i].target = m.shards[d.shard].tuples.at(d.local).minEntID
		} else {
			out[i].batch = d.batch
		}
	}
	return out
}

// TestPlanLayoutIndependent pins the seam ingest is cut along: decide and
// chain, run on the same state and batch at 1, 2 and 4 shards, settle every
// row identically — same target tuple, same distance bits, same
// forming tuple with the same member rows. The batch holds each chaining
// rule's case: rows with no text (never chain, one singleton each), an exact
// duplicate of a forming tuple, and two rows within M of both a pre-batch
// tuple and a forming one — the one nearer the established tuple stays
// absorbed, the one strictly nearer the forming tuple joins it.
func TestPlanLayoutIndependent(t *testing.T) {
	d := smallGeo(t)
	byID := d.EntityByID()
	const novel = "zyxwv quorndale harbourmaster"
	var rows [][]string
	var est int // the established tuple: a pre-batch singleton, by entity ID

	var want []rowOutcome
	var wantTuples string
	for _, shards := range []int{1, 2, 4} {
		m := buildBase(t, d, shards)
		if rows == nil {
			c := m.TupleCursor(1)
			for c.Next() && c.Size() != 1 {
			}
			est = c.Members()[0]
			name := byID[est].Values[0]
			mix := func(nNovel, nEst int) string {
				return strings.TrimSpace(strings.Repeat(novel+" ", nNovel) + strings.Repeat(name+" ", nEst))
			}
			rows = [][]string{
				0: {novel, "0", "0"},                // starts forming tuple 0
				1: {mix(2, 3), "0", "0"},            // within M of both, nearer the established tuple
				2: {mix(3, 2), "0", "0"},            // within M of both, strictly nearer the forming one
				3: {"", "0", "0"},                   // no text
				4: {novel, "0", "0"},                // exact duplicate of row 0
				5: {"", "0", "0"},                   // no text again: must not chain with row 3
				6: byID[est].Values,                 // exact duplicate of the established tuple
				7: {"isolated outpost 7", "0", "0"}, // a second forming tuple
			}
		}

		p := m.decide(rows)
		pre := outcomes(m, p)
		m.chain(p)
		got := outcomes(m, p)

		var tuples []string
		for _, bt := range p.tuples {
			tuples = append(tuples, fmt.Sprintf("%v@%08x", bt.rows, math.Float32bits(bt.maxJoin)))
		}
		gotTuples := strings.Join(tuples, " ")
		if want == nil {
			want, wantTuples = got, gotTuples
		}
		if !slices.Equal(got, want) || gotTuples != wantTuples {
			t.Fatalf("shards=%d: plan differs from shards=1\n got  %+v %s\n want %+v %s", shards, got, gotTuples, want, wantTuples)
		}

		// Both contested rows were headed for the established tuple and had
		// the forming one within reach; only strict closeness moved row 2.
		for _, i := range []int{1, 2} {
			if !pre[i].absorb || pre[i].target != est {
				t.Fatalf("shards=%d row %d: decide %+v, want absorption into the tuple of entity %d", shards, i, pre[i], est)
			}
			if toForming := vector.CosineUnitDist(p.vecs.At(i), p.vecs.At(0)); toForming > m.opt.M {
				t.Fatalf("shards=%d row %d: forming tuple at %v is out of reach; the case is not contested", shards, i, toForming)
			}
		}
		if got[1] != pre[1] {
			t.Fatalf("shards=%d row 1: chain moved %+v to %+v, want it left with the nearer established tuple", shards, pre[1], got[1])
		}
		if got[2].absorb || got[2].batch != 0 || math.Float32frombits(got[2].dist) >= math.Float32frombits(pre[2].dist) {
			t.Fatalf("shards=%d row 2: %+v after %+v, want it in forming tuple 0 at a strictly smaller distance", shards, got[2], pre[2])
		}
		if got[6] != pre[6] || !got[6].absorb || got[6].target != est {
			t.Fatalf("shards=%d row 6: %+v, want absorption into the tuple of entity %d", shards, got[6], est)
		}
		if want := "[0 2 4]@"; !strings.HasPrefix(tuples[0], want) {
			t.Fatalf("shards=%d: forming tuple 0 is %s, want rows %s", shards, tuples[0], want)
		}
		for _, i := range []int{3, 5} {
			if got[i].absorb || !slices.Equal(p.tuples[got[i].batch].rows, []int{i}) {
				t.Fatalf("shards=%d row %d (no text): %+v in tuple %v, want a singleton of its own", shards, i, got[i], p.tuples[got[i].batch].rows)
			}
		}

		// The partition covers every row once, ascending, on the shard its
		// decision names.
		seen := 0
		for s, part := range p.perShard {
			if !slices.IsSorted(part) {
				t.Fatalf("shards=%d: shard %d's rows %v are not ascending", shards, s, part)
			}
			for _, i := range part {
				if p.rows[i].shard != s {
					t.Fatalf("shards=%d: row %d listed under shard %d, decided for %d", shards, i, s, p.rows[i].shard)
				}
				seen++
			}
		}
		if seen != len(rows) {
			t.Fatalf("shards=%d: partition holds %d rows, want %d", shards, seen, len(rows))
		}
	}
}

// TestSearchShardWriterEqualsView is the property that lets decide and Match
// share searchShard: after a history that leaves stale index entries, a
// search over the writer's own shard state and one over the view published
// from it return the same tuples, nodes and distance bits, on every shard.
func TestSearchShardWriterEqualsView(t *testing.T) {
	m, d := shardedGeo(t, 4)
	rows := absorbRows(m, d, 24)
	for b := 0; b < 2; b++ { // each batch strands one stale entry per row
		if _, err := m.AddRecords(rows); err != nil {
			t.Fatal(err)
		}
	}
	queries := append(ingestRows(0, 6), rows...)

	ef := m.shardEf()
	views := m.state.Load().shards
	collapsed := 0
	for s, sh := range m.shards {
		if sh.index.Len() == sh.tuples.len() {
			t.Fatalf("shard %d has no stale entries; the history does not exercise the collapse", s)
		}
		for _, fetch := range []int{addSearchK, 4*3 + 8} {
			for qi, values := range queries {
				q := m.embed(values)
				var w, v shardHits
				searchShard(&sh.shardView, fetch, ef, q, &w)
				searchShard(views[s], fetch, ef, q, &v)
				if !slices.Equal(w.keys, v.keys) || !slices.Equal(w.locals, v.locals) || !slices.Equal(w.nodes, v.nodes) {
					t.Fatalf("shard %d fetch %d query %d: writer hits %+v, view hits %+v", s, fetch, qi, w, v)
				}
				for j := range w.dists {
					if math.Float32bits(w.dists[j]) != math.Float32bits(v.dists[j]) {
						t.Fatalf("shard %d fetch %d query %d: tuple %d scored %v by the writer, %v by the view", s, fetch, qi, w.locals[j], w.dists[j], v.dists[j])
					}
				}
				collapsed += len(sh.index.Search(q, fetch, ef)) - len(w.locals)
			}
		}
	}
	if collapsed == 0 {
		t.Fatal("no search returned two entries of one tuple; the dedupe went unexercised")
	}
}

// BenchmarkIngestStages times decide, chain and apply separately, per row,
// over one stream of 16-row batches into a prepopulated 2-shard matcher —
// the per-stage handle a change to one stage is measured with. Every batch
// is published before the next, so apply pays the copy-on-write a serving
// matcher pays; the publish itself is outside all three clocks.
func BenchmarkIngestStages(b *testing.B) {
	const batchRows = 16
	m := buildBase(b, smallGeo(b), 2)
	for batch := 0; batch < 64; batch++ {
		if _, err := m.AddRecords(ingestRows(batch, batchRows)); err != nil {
			b.Fatal(err)
		}
	}
	m.addMu.Lock()
	defer m.addMu.Unlock()
	var decide, chain, apply time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := ingestRows(64+i, batchRows)
		t0 := time.Now()
		p := m.decide(rows)
		t1 := time.Now()
		m.chain(p)
		t2 := time.Now()
		m.apply(p)
		apply += time.Since(t2)
		chain += t2.Sub(t1)
		decide += t1.Sub(t0)
		m.publish(p)
	}
	perRow := float64(b.N * batchRows)
	b.ReportMetric(float64(decide.Nanoseconds())/perRow, "decide-ns/row")
	b.ReportMetric(float64(chain.Nanoseconds())/perRow, "chain-ns/row")
	b.ReportMetric(float64(apply.Nanoseconds())/perRow, "apply-ns/row")
}
