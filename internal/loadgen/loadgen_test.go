package loadgen

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestPacerTickCountFakeClock: the number of arrivals in a window depends
// only on rate and window length — the defining open-loop property — and the
// fake clock makes it exact and instant.
func TestPacerTickCountFakeClock(t *testing.T) {
	cases := []struct {
		rate   float64
		window time.Duration
		want   int64
	}{
		{1000, time.Second, 1000},
		{250, 2 * time.Second, 500},
		{3, time.Second, 3},
		{0.5, 10 * time.Second, 5},
		{100, 50 * time.Millisecond, 5},
	}
	for _, c := range cases {
		clock := &FakeClock{Cur: time.Unix(1000, 0)}
		p, err := NewPacer(c.rate, clock)
		if err != nil {
			t.Fatal(err)
		}
		deadline := p.Start().Add(c.window)
		var n int64
		var last time.Time
		for {
			tick, ok := p.Next(deadline)
			if !ok {
				break
			}
			if n > 0 && tick.Before(last) {
				t.Fatalf("rate %v: schedule went backwards: %v after %v", c.rate, tick, last)
			}
			last = tick
			n++
		}
		if n != c.want {
			t.Errorf("rate %v over %v: %d ticks, want %d", c.rate, c.window, n, c.want)
		}
		if p.i != c.want {
			t.Errorf("issued %d ticks, want %d", p.i, c.want)
		}
	}
}

// TestPacerScheduleFixed: tick instants are computed from the origin, so a
// slow consumer (simulated by jumping the fake clock forward) does not shift
// later ticks — arrivals the consumer missed fire immediately, they are not
// re-planned.
func TestPacerScheduleFixed(t *testing.T) {
	clock := &FakeClock{Cur: time.Unix(0, 0)}
	p, err := NewPacer(10, clock) // one tick per 100ms
	if err != nil {
		t.Fatal(err)
	}
	deadline := p.Start().Add(time.Second)
	t0, _ := p.Next(deadline)
	// Consumer stalls 450ms past tick 0: ticks 1..4 are already due.
	clock.SleepUntil(t0.Add(450 * time.Millisecond))
	for i := 1; i <= 4; i++ {
		tick, ok := p.Next(deadline)
		if !ok {
			t.Fatalf("tick %d missing", i)
		}
		if want := p.Start().Add(time.Duration(i) * 100 * time.Millisecond); !tick.Equal(want) {
			t.Errorf("tick %d at %v, want %v (schedule must not shift)", i, tick, want)
		}
		if clock.Now().Before(tick) {
			t.Errorf("tick %d: clock %v went backwards before tick", i, clock.Now())
		}
	}
}

// TestDriverLoopback: run the driver briefly against a stub server and check
// the bookkeeping: exact scheduled count, zero errors, both endpoints hit,
// rows accounted, histograms populated.
func TestDriverLoopback(t *testing.T) {
	var gotMatch, gotAdd atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/match":
			gotMatch.Add(1)
		case "/add":
			gotAdd.Add(1)
		default:
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	rep, err := Run(Config{
		BaseURL:    srv.URL,
		Rate:       400,
		Duration:   250 * time.Millisecond,
		Warmup:     100 * time.Millisecond,
		MatchRatio: 0.5,
		Seed:       1,
		Workload:   staticWorkload{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 400/s over a 350ms schedule = 140 ticks; the first 40 are warmup.
	if got := rep.Scheduled + rep.WarmupScheduled; got != 140 {
		t.Fatalf("total scheduled = %d, want 140", got)
	}
	if rep.Scheduled != 100 {
		t.Fatalf("measured scheduled = %d, want 100", rep.Scheduled)
	}
	if e := rep.Errors(); e != 0 {
		t.Fatalf("errors = %d, want 0 (%+v %+v)", e, rep.Endpoints["match"], rep.Endpoints["add"])
	}
	if rep.OK() != rep.Scheduled {
		t.Fatalf("ok = %d, want %d", rep.OK(), rep.Scheduled)
	}
	if got := gotMatch.Load() + gotAdd.Load(); got != 140 {
		t.Fatalf("server saw %d requests, want 140", got)
	}
	for _, name := range []string{"match", "add"} {
		ep := rep.Endpoints[name]
		if ep.Sent == 0 || ep.OK != ep.Sent {
			t.Errorf("%s: sent %d ok %d", name, ep.Sent, ep.OK)
		}
		if ep.P50Ms <= 0 || ep.MaxMs < ep.P50Ms {
			t.Errorf("%s: empty histogram: p50 %v max %v", name, ep.P50Ms, ep.MaxMs)
		}
	}
	if ep := rep.Endpoints["add"]; ep.Rows != ep.Sent*3 {
		t.Errorf("add rows = %d, want %d", ep.Rows, ep.Sent*3)
	}
	if rep.AchievedRate <= 0 {
		t.Errorf("achieved rate = %v", rep.AchievedRate)
	}
}

// TestDriverCountsErrors: non-2xx responses land in Errors, not OK.
func TestDriverCountsErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"nope"}`, http.StatusBadRequest)
	}))
	defer srv.Close()
	rep, err := Run(Config{
		BaseURL:  srv.URL,
		Rate:     200,
		Duration: 100 * time.Millisecond,
		Seed:     2,
		Workload: staticWorkload{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() != 0 {
		t.Fatalf("ok = %d, want 0", rep.OK())
	}
	if rep.Errors() != rep.Scheduled {
		t.Fatalf("errors = %d, want %d", rep.Errors(), rep.Scheduled)
	}
}

type staticWorkload struct{}

func (staticWorkload) MatchValues() []string { return []string{"a", "b", "c"} }
func (staticWorkload) AddBatch() [][]string {
	return [][]string{{"a", "b", "c"}, {"d", "e", "f"}, {"g", "h", "i"}}
}
