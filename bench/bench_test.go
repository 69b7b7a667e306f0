package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, // 10 samples beyond p99
		{999, 95},  // 9 beyond p99
		{200, 95},
		{199, 90},
		{100, 90},
		{20, 50},
		{15, 50}, // nothing has ten beyond: fall back to the median
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if p := percentile(sorted, 99); p != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", p)
	}
	if p := percentile(sorted, 50); p != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", p)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
}

// A gated timing is the clock's reading divided by the scale; the scale
// follows three quarters of the reference task's slowdown and is 1 at the
// nominal piece time.
func TestReferenceScale(t *testing.T) {
	f := newReference()
	f.sample(3)
	if len(f.samples) != 3 || f.samples[0] <= 0 {
		t.Fatalf("3 pieces left samples %v", f.samples)
	}
	for _, tc := range []struct{ pieceMS, slowdown, scale float64 }{
		{refNominalMS, 1, 1},
		{2 * refNominalMS, 2, 1.75},
		{0.8 * refNominalMS, 0.8, 0.85},
	} {
		f.samples = []float64{tc.pieceMS / 2, tc.pieceMS, 9 * tc.pieceMS} // the median decides
		if got := f.slowdown(); math.Abs(got-tc.slowdown) > 1e-9 {
			t.Errorf("piece %v ms: slowdown %v, want %v", tc.pieceMS, got, tc.slowdown)
		}
		if got := f.scale(); math.Abs(got-tc.scale) > 1e-9 {
			t.Errorf("piece %v ms: scale %v, want %v", tc.pieceMS, got, tc.scale)
		}
	}
}

// opBytes flattens every request body a corpus would send, in order.
func opBytes(c *corpus) []byte {
	var b bytes.Buffer
	for _, rec := range c.prepop {
		b.WriteString(strings.Join(rec.values, "\x00"))
	}
	for _, op := range c.warmup {
		b.Write(op.body)
	}
	for _, ops := range c.reads {
		for _, op := range ops {
			b.Write(op.body)
		}
	}
	for _, op := range c.writes {
		b.Write(op.body)
	}
	return b.Bytes()
}

func TestCorpusIsAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range specs {
		sp = sp.scaled(smokeFactor, smokeFactor)
		a, err := newCorpus(sp, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newCorpus(sp, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newCorpus(sp, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(opBytes(a), opBytes(b)) {
			t.Errorf("%s: two corpora from seed 7 differ", sp.name)
		}
		if bytes.Equal(opBytes(a), opBytes(c)) {
			t.Errorf("%s: corpora from seeds 7 and 8 are identical", sp.name)
		}
		if len(a.writes) != sp.writeBatches || len(a.writes[0].recs) != sp.batchRows {
			t.Errorf("%s: %d batches of %d rows, want %d of %d", sp.name, len(a.writes), len(a.writes[0].recs), sp.writeBatches, sp.batchRows)
		}
		for _, op := range a.reads[0] {
			if !a.prepopKeys[op.rec.key] {
				t.Fatalf("%s: query for key %d, which was never prepopulated", sp.name, op.rec.key)
			}
		}
	}
}

// benchmarkJSON is the contract file at the root of the checkout.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestCatalogueEqualsBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if bj.RunSeconds != baseSeconds {
		t.Errorf("run_seconds %d, the op counts are written for %d", bj.RunSeconds, baseSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bj.Paths)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(bj.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	for i, m := range bj.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], spec.go %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("end-to-end %q [%q]: bad or repeated name, or bad unit", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %q: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		seen[m.Name] = true
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], spec.go %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per-layer %q [%q]: bad or repeated name, or bad unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
}

// assertNothingOutlives checks that a finished run left no server process
// and no scratch directory behind.
func assertNothingOutlives(t *testing.T, r *run) {
	t.Helper()
	if _, err := os.Stat(r.dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("scratch directory %s outlived the run (stat: %v)", r.dir, err)
	}
	if len(r.procs) == 0 {
		t.Error("the run never started a server")
	}
	for _, p := range r.procs {
		if !stopped(p.exited) {
			t.Errorf("server pid %d was not waited for", p.cmd.Process.Pid)
		}
		if err := syscall.Kill(p.cmd.Process.Pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("server pid %d still exists (kill -0: %v)", p.cmd.Process.Pid, err)
		}
	}
}

func smokeRun(ctx context.Context, t *testing.T, sp spec, trace bool) *run {
	return &run{
		ctx: ctx, sp: sp.scaled(smokeFactor, smokeFactor), seed: 3, trace: trace, setups: 1,
		logf: func(format string, args ...any) { t.Logf(format, args...) },
	}
}

// TestSmokeRunEmitsEveryMetric runs all four workloads at 1/50 size against
// a real cmd/server (built, started, killed, restarted) and checks that each
// reports every metric BENCHMARK.json names, that no check fails, and that
// nothing outlives the run.
func TestSmokeRunEmitsEveryMetric(t *testing.T) {
	for i, sp := range specs {
		trace := i == len(specs)-1 // the traced path once, on the concurrent workload
		r := smokeRun(context.Background(), t, sp, trace)
		if err := r.execute(); err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if r.ops.failed.Load() != 0 {
			t.Errorf("%s: %d of %d ops failed: %v", sp.name, r.ops.failed.Load(), r.ops.attempted.Load(), r.ops.firstErrs)
		}
		for _, d := range endToEnd {
			if m, ok := r.metrics[d.name]; !ok || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s missing or not positive (%v)", sp.name, d.name, m.Value)
			}
		}
		if trace {
			for _, d := range perLayer {
				if _, ok := r.metrics[d.name]; !ok {
					t.Errorf("%s: per-layer metric %s missing from the traced run", sp.name, d.name)
				}
			}
			spans, err := os.ReadFile("out/trace-" + sp.name + ".jsonl")
			if err != nil || bytes.Count(spans, []byte("\n")) != r.tracer.count() {
				t.Errorf("%s: span file has %d lines for %d spans (%v)", sp.name, bytes.Count(spans, []byte("\n")), r.tracer.count(), err)
			}
		}
		assertNothingOutlives(t, r)
	}
}

func TestNothingOutlivesAFailedRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := smokeRun(ctx, t, specs[1], false)
	r.logf = func(format string, args ...any) {
		if strings.HasPrefix(format, "set-up x") { // the server is up and ready
			cancel()
		}
	}
	if err := r.execute(); !errors.Is(err, context.Canceled) {
		t.Fatalf("execute returned %v, want context.Canceled", err)
	}
	assertNothingOutlives(t, r)
}

func TestFailedOpsAreCountedNotDropped(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch n := calls.Add(1); {
		case n%5 == 0:
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
		case n%5 == 1:
			w.Write([]byte(`{"candidates":[]}`)) // 200, but no answer
		case n%5 == 2:
			w.Write([]byte(`{"candidates":[{"tuple":1,"entity_ids":[1],"distance":0.4},{"tuple":2,"entity_ids":[2],"distance":0.1}]}`)) // unsorted
		default:
			w.Write([]byte(`{"candidates":[{"tuple":1,"entity_ids":[1],"distance":0.1}]}`))
		}
	}))
	defer srv.Close()

	ops := make([]matchOp, 20)
	for i := range ops {
		ops[i] = newMatchOp(record{values: []string{"x"}, key: 9})
	}
	st := &state{c: &corpus{reads: [][]matchOp{ops}}, prepop: map[int]int{1: 9}}
	r := &run{ctx: context.Background()}
	results := runReaders(r.ctx, []target{newHTTPTarget(srv.URL)}, st.c.reads, nil)
	hits, answered := r.checkReads(st, st.c.reads, results, false)
	if got := r.ops.attempted.Load(); got != 20 {
		t.Errorf("attempted %d, want 20", got)
	}
	if got := r.ops.failed.Load(); got != 12 { // 4 x 500, 4 x empty, 4 x unsorted
		t.Errorf("failed %d, want 12", got)
	}
	if answered != 8 || hits != 8 {
		t.Errorf("answered %d hits %d, want 8 and 8", answered, hits)
	}
	// An op that failed, in transport or in a check, has no latency.
	if rd := roundOf(results, 1); len(rd.lat) != 8 {
		t.Errorf("the round kept %d latency samples, want 8", len(rd.lat))
	}
}
