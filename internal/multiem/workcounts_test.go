package multiem

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/vector"
)

var updateWorkCounts = flag.Bool("update-workcounts", false, "rewrite testdata/workcounts.golden from this run")

// linkStats sums the link work of the serving view's indexes (a clone
// shares its writer's counters): nodes linked, link-time distance
// evaluations, shrinks of a full block and the shrinks shrinkFast derived;
// then the nodes past one a tuple, the absorbed rows indexed as nodes.
func (m *Matcher) linkStats() (w [5]uint64) {
	for _, sv := range m.state.Load().shards {
		nodes, evals, shrinks, fast := sv.index.LinkStats()
		for i, v := range [4]uint64{nodes, evals, shrinks, fast} {
			w[i] += v
		}
		w[4] += uint64(sv.index.Len() - sv.tuples.Len())
	}
	return w
}

// workCounts runs the in-process online scenario and renders the work it
// did: a Music-20 ×0.1 base on 2 shards, then the rows of a Music-200 ×0.01
// dataset, shuffled, through AddRecords in 16-row batches, then Match on
// every tenth of them re-cased. Each line is a phase's totals: searches,
// distance evaluations and link-time distance evaluations, and the rows or
// queries they are over; then the nodes linked per row or query, the
// absorbed rows the phase indexed as extra nodes of their tuples, the link
// blocks shrunk per node linked, and the share of those shrinks derived from
// the block's last split.
func workCounts(t *testing.T) string {
	t.Helper()
	base, err := datagen.GenerateByName("Music-20", 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := datagen.GenerateByName("Music-200", 0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Shards = 2
	m, err := BuildMatcher(base, o)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	var s0, e0 uint64
	var l0 [5]uint64
	phase := func(name string, n int) {
		s, e := m.SearchStats()
		l := m.linkStats()
		nodes, shrinks, fast := l[0]-l0[0], l[2]-l0[2], l[3]-l0[3]
		fmt.Fprintf(&b, "%-6s n=%-5d searches=%-6d dist_evals=%-9d link_evals=%-8d links/row=%.3f extra=%-4d shrinks/link=%.3f fast=%.3f\n",
			name, n, s-s0, e-e0, l[1]-l0[1], ratio(nodes, uint64(n)), l[4]-l0[4], ratio(shrinks, nodes), ratio(fast, shrinks))
		s0, e0, l0 = s, e, l
	}
	phase("build", base.NumEntities())

	rows := stream.AllEntities()
	rand.New(rand.NewSource(3)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	for lo := 0; lo < len(rows); lo += 16 {
		batch := make([][]string, 0, 16)
		for _, e := range rows[lo:min(lo+16, len(rows))] {
			batch = append(batch, e.Values)
		}
		if _, err := m.AddRecords(batch); err != nil {
			t.Fatal(err)
		}
	}
	phase("ingest", len(rows))

	queries := 0
	for i := 0; i < len(rows); i += 10 {
		vals := make([]string, len(rows[i].Values))
		for j, v := range rows[i].Values {
			vals[j] = strings.ToUpper(v)
		}
		if _, err := m.Match(vals, 10); err != nil {
			t.Fatal(err)
		}
		queries++
	}
	phase("match", queries)
	return b.String()
}

// TestWorkCounts pins the work the online matcher does in one fixed
// scenario — searches, distance evaluations and link-time evaluations per
// build, ingested row and Match — to testdata/workcounts.golden. The counts
// repeat exactly at a seed, where a timing needs many alternating runs to
// resolve; a change that moves one re-takes the golden in the same commit
// (-update-workcounts) and says why. Every kernel path must give the golden:
// the kernels return the same bits, so the walks take the same steps.
func TestWorkCounts(t *testing.T) {
	const golden = "testdata/workcounts.golden"
	prev := vector.Kernels()
	defer vector.SetKernels(prev)
	ran := map[string]bool{}
	for _, mode := range []string{"scalar", "avx2", "auto"} {
		if err := vector.SetKernels(mode); err != nil {
			t.Logf("%s: %v", mode, err)
			continue
		}
		if ran[vector.Kernels()] {
			continue
		}
		ran[vector.Kernels()] = true
		got := workCounts(t)
		if *updateWorkCounts {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("work counts under %s kernels moved:\ngot\n%swant\n%s", vector.Kernels(), got, want)
		}
	}
}

// ratio is a/b, or 0 for a phase that did none of b.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
