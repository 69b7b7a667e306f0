package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"testing"
	"time"
)

// fakeClock is a deterministic time source advanced by the test.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time           { return c.t }
func (c *fakeClock) advance(d time.Duration)  { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock                { return &fakeClock{t: time.Unix(1000, 0)} }
func ms(n time.Duration) time.Duration        { return n * time.Millisecond }
func quantile(s *Stages, i int) time.Duration { return s.StageSnapshot(i).Quantile(0.5) }
func within(a, b, tol time.Duration) bool     { d := a - b; return -tol <= d && d <= tol }
func approx(t *testing.T, name string, got, want time.Duration) {
	t.Helper()
	// HDR buckets reconstruct within ~3.1%.
	tol := want / 16
	if tol < time.Microsecond {
		tol = time.Microsecond
	}
	if !within(got, want, tol) {
		t.Errorf("%s = %v, want ~%v", name, got, want)
	}
}

func TestSpanStageAttribution(t *testing.T) {
	clk := newFakeClock()
	st := NewStages("match", "embed", "fanout", "merge")
	st.SetClock(clk.now)

	sp := st.Start()
	clk.advance(ms(2))
	sp.Mark(0)
	clk.advance(ms(30))
	sp.Mark(1)
	clk.advance(ms(5))
	sp.Mark(2)
	sp.End()

	approx(t, "embed", quantile(st, 0), ms(2))
	approx(t, "fanout", quantile(st, 1), ms(30))
	approx(t, "merge", quantile(st, 2), ms(5))
	approx(t, "total", st.TotalSnapshot().Quantile(0.5), ms(37))
	if n := st.TotalSnapshot().Count; n != 1 {
		t.Errorf("total count = %d, want 1", n)
	}
}

func TestSpanRepeatedMarkAccumulates(t *testing.T) {
	clk := newFakeClock()
	st := NewStages("op", "a", "b")
	st.SetClock(clk.now)
	sp := st.Start()
	clk.advance(ms(1))
	sp.Mark(0)
	clk.advance(ms(10))
	sp.Mark(1)
	clk.advance(ms(3))
	sp.Mark(0) // back to stage a
	sp.End()
	approx(t, "a", quantile(st, 0), ms(4))
	approx(t, "b", quantile(st, 1), ms(10))
}

func TestZeroSpanIsNoop(t *testing.T) {
	var sp Span
	sp.Mark(0)
	sp.End() // must not panic or record
}

func TestAbandonedSpanRecordsNothing(t *testing.T) {
	clk := newFakeClock()
	st := NewStages("op", "a")
	st.SetClock(clk.now)
	sp := st.Start()
	clk.advance(ms(1))
	sp.Mark(0)
	// no End: early-return path
	if n := st.TotalSnapshot().Count; n != 0 {
		t.Errorf("abandoned span recorded %d totals", n)
	}
}

// slowLogLine is the slow-request record shape emitted via slog JSON.
func decodeSlowLine(t *testing.T, line []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(line, &m); err != nil {
		t.Fatalf("slow log line is not JSON: %v (%s)", err, line)
	}
	return m
}

// TestSlowLogBreakdownSumsToTotal is the acceptance check: a slow span's
// logged stage durations must sum to within 10% of the logged total.
func TestSlowLogBreakdownSumsToTotal(t *testing.T) {
	clk := newFakeClock()
	st := NewStages("match", "embed", "fanout", "merge")
	st.SetClock(clk.now)
	var buf bytes.Buffer
	st.SetSlowLog(slog.New(slog.NewJSONHandler(&buf, nil)), ms(100), 1)

	sp := st.Start()
	clk.advance(ms(12))
	sp.Mark(0)
	clk.advance(ms(180))
	sp.Mark(1)
	clk.advance(ms(9))
	sp.Mark(2)
	sp.End()

	if st.SlowLogged() != 1 {
		t.Fatalf("SlowLogged = %d, want 1", st.SlowLogged())
	}
	m := decodeSlowLine(t, bytes.TrimSpace(buf.Bytes()))
	if m["op"] != "match" {
		t.Errorf("op = %v", m["op"])
	}
	total := m["total_ms"].(float64)
	sum := 0.0
	for _, stage := range st.stages {
		v, ok := m[stage+"_ms"].(float64)
		if !ok {
			t.Fatalf("stage %s missing from log: %v", stage, m)
		}
		sum += v
	}
	if total <= 0 || sum < total*0.9 || sum > total*1.1 {
		t.Errorf("stage sum %.3fms vs total %.3fms: outside 10%%", sum, total)
	}
}

func TestSlowLogThresholdAndSampling(t *testing.T) {
	clk := newFakeClock()
	st := NewStages("op", "a")
	st.SetClock(clk.now)
	var buf bytes.Buffer
	st.SetSlowLog(slog.New(slog.NewJSONHandler(&buf, nil)), ms(50), 3)

	run := func(d time.Duration) {
		sp := st.Start()
		clk.advance(d)
		sp.Mark(0)
		sp.End()
	}
	run(ms(10)) // fast: never logged
	if st.SlowLogged() != 0 {
		t.Fatalf("fast span logged")
	}
	for i := 0; i < 9; i++ {
		run(ms(60)) // slow: sampled 1 in 3
	}
	if got := st.SlowLogged(); got != 3 {
		t.Errorf("SlowLogged = %d, want 3 (1 in 3 of 9)", got)
	}
	if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != 3 {
		t.Errorf("log lines = %d, want 3", lines)
	}
}

func TestSlowLogDisabledByDefault(t *testing.T) {
	clk := newFakeClock()
	st := NewStages("op", "a")
	st.SetClock(clk.now)
	sp := st.Start()
	clk.advance(time.Hour)
	sp.Mark(0)
	sp.End() // no logger set: must not panic
	if st.SlowLogged() != 0 {
		t.Error("logged with no logger configured")
	}
}
