package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/loadgen"
)

// TestLoadgenLoopback drives the open-loop load generator against an
// in-process server handler — the same wiring cmd/loadgen uses against a
// live server — and reconciles the client-side report with the server's
// /stats endpoint summaries: every scheduled request arrived, nothing
// errored, and both sides measured a non-empty latency distribution.
func TestLoadgenLoopback(t *testing.T) {
	m, _ := testMatcher(t)
	srv := httptest.NewServer(newHandler(m, 0))
	defer srv.Close()

	stream, err := datagen.NewStream("Geo", 500, 1.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// No warmup window: the server's summaries count every request it handled,
	// the coldest first ones included, so the client's must too for the two
	// distributions to be compared below.
	rep, err := loadgen.Run(loadgen.Config{
		BaseURL:    srv.URL,
		Rate:       150,
		Duration:   500 * time.Millisecond,
		Warmup:     0,
		MatchRatio: 0.6,
		Seed:       1,
		Workload:   streamWorkload{stream: stream, batch: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := rep.Errors(); e != 0 {
		t.Fatalf("client errors = %d, want 0 (match %+v, add %+v)",
			e, rep.Endpoints["match"], rep.Endpoints["add"])
	}
	if rep.WarmupErrors != 0 {
		t.Fatalf("warmup errors = %d", rep.WarmupErrors)
	}
	if rep.OK() != rep.Scheduled {
		t.Fatalf("ok = %d, scheduled = %d", rep.OK(), rep.Scheduled)
	}
	for _, name := range []string{"match", "add"} {
		if ep := rep.Endpoints[name]; ep.Sent == 0 || ep.P50Ms <= 0 {
			t.Fatalf("%s: empty client histogram: %+v", name, ep)
		}
	}

	// Server-side view: /stats endpoints must account for every request the
	// client sent with zero errors and populated percentiles.
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Endpoints map[string]struct {
			Requests int64   `json:"requests"`
			Errors   int64   `json:"errors"`
			P50Ms    float64 `json:"p50_ms"`
			P99Ms    float64 `json:"p99_ms"`
			MaxMs    float64 `json:"max_ms"`
		} `json:"endpoints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	var serverTotal int64
	for _, name := range []string{"match", "add"} {
		es, ok := stats.Endpoints[name]
		if !ok {
			t.Fatalf("/stats endpoints missing %q: %+v", name, stats.Endpoints)
		}
		if es.Errors != 0 {
			t.Errorf("%s: server errors = %d", name, es.Errors)
		}
		if es.Requests == 0 || es.P50Ms <= 0 || es.P99Ms < es.P50Ms {
			t.Errorf("%s: empty/inconsistent server summary: %+v", name, es)
		}
		serverTotal += es.Requests
		// Both sides saw the same requests; the client measures each from its
		// scheduled instant, the server from handler entry, so the server's
		// distribution is bounded by the client's worst case.
		if cl := rep.Endpoints[name]; es.P99Ms > cl.MaxMs {
			t.Errorf("%s: server p99 %.2fms exceeds client max %.2fms", name, es.P99Ms, cl.MaxMs)
		}
	}
	if want := rep.Scheduled + rep.WarmupScheduled; serverTotal != want {
		t.Errorf("server handled %d requests, client dispatched %d", serverTotal, want)
	}
}

// streamWorkload adapts a datagen.Stream to the driver's Workload.
type streamWorkload struct {
	stream *datagen.Stream
	batch  int
}

func (w streamWorkload) MatchValues() []string { return w.stream.Record() }
func (w streamWorkload) AddBatch() [][]string  { return w.stream.Batch(w.batch) }
