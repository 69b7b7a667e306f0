package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// pinnedMetrics is the operator contract: every name here (with its type)
// must appear in /metrics. Renaming or retyping a series breaks dashboards
// and alert rules silently, so doing it must force an edit of this list —
// and of the catalogue in docs/OPERATIONS.md.
var pinnedMetrics = map[string]string{
	"multiem_http_requests_total":           "counter",
	"multiem_http_errors_total":             "counter",
	"multiem_http_request_duration_seconds": "summary",

	"multiem_uptime_seconds":      "gauge",
	"multiem_go_goroutines":       "gauge",
	"multiem_go_heap_alloc_bytes": "gauge",
	"multiem_kernels_info":        "gauge",

	"multiem_entities":             "gauge",
	"multiem_tuples":               "gauge",
	"multiem_matched_tuples":       "gauge",
	"multiem_shards":               "gauge",
	"multiem_epoch":                "gauge",
	"multiem_epoch_age_seconds":    "gauge",
	"multiem_ingest_batches_total": "counter",
	"multiem_ingest_rows_total":    "counter",

	"multiem_shard_live_tuples":       "gauge",
	"multiem_shard_index_entries":     "gauge",
	"multiem_shard_stale_entries":     "gauge",
	"multiem_shard_compactions_total": "counter",

	"multiem_match_duration_seconds":        "summary",
	"multiem_match_duration_seconds_stage":  "summary",
	"multiem_ingest_duration_seconds":       "summary",
	"multiem_ingest_duration_seconds_stage": "summary",
	"multiem_view_build_duration_seconds":   "summary",
	"multiem_slow_requests_total":           "counter",

	"multiem_hnsw_searches_total":       "counter",
	"multiem_hnsw_nodes_visited_total":  "counter",
	"multiem_hnsw_distance_evals_total": "counter",

	"multiem_wal_enabled":                "gauge",
	"multiem_wal_segments":               "gauge",
	"multiem_wal_bytes":                  "gauge",
	"multiem_wal_next_seq":               "gauge",
	"multiem_wal_snapshot_seq":           "gauge",
	"multiem_wal_appends_total":          "counter",
	"multiem_wal_syncs_total":            "counter",
	"multiem_wal_torn_truncations_total": "counter",
	"multiem_wal_snapshots_total":        "counter",
	"multiem_wal_snapshot_errors_total":  "counter",
	"multiem_wal_sync_duration_seconds":  "summary",
	"multiem_recovery_load_seconds":      "gauge",
	"multiem_recovery_load_bytes":        "gauge",
	"multiem_recovery_replayed_rows":     "gauge",
	"multiem_recovery_replay_seconds":    "gauge",

	"multiem_recovery_reader_busy_seconds": "gauge",
	"multiem_recovery_shard_busy_seconds":  "gauge",
	"multiem_recovery_skipped_links":       "gauge",

	"multiem_repl_role":                  "gauge",
	"multiem_repl_term":                  "gauge",
	"multiem_repl_lag_batches":           "gauge",
	"multiem_repl_lag_bytes":             "gauge",
	"multiem_repl_since_contact_seconds": "gauge",
	"multiem_repl_bytes_fetched_total":   "counter",
	"multiem_repl_fetch_errors_total":    "counter",
	"multiem_repl_resyncs_total":         "counter",
}

func scrape(t *testing.T, h http.Handler) (*httptest.ResponseRecorder, *obs.Exposition) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", w.Code)
	}
	exp, err := obs.ParseExposition(strings.NewReader(w.Body.String()))
	if err != nil {
		t.Fatalf("/metrics is not valid exposition: %v", err)
	}
	return w, exp
}

// TestMetricsCatalogue: /metrics must be well-formed text exposition and
// carry every pinned series with its pinned type.
func TestMetricsCatalogue(t *testing.T) {
	m, d := testMatcher(t)
	h := newHandler(m, 0)

	// Drive traffic through both data endpoints so the instrumented
	// series have observations, not just registrations.
	byID := d.EntityByID()
	tuples := m.Result().Tuples
	if w := postJSON(t, h, "/match", matchRequest{Values: byID[tuples[0][0]].Values, K: 2}); w.Code != http.StatusOK {
		t.Fatalf("match status %d", w.Code)
	}
	var recs [][]string
	for i := 0; i < 4; i++ {
		recs = append(recs, byID[tuples[i][0]].Values)
	}
	if w := postJSON(t, h, "/add", addRequest{Records: recs}); w.Code != http.StatusOK {
		t.Fatalf("add status %d", w.Code)
	}

	w, exp := scrape(t, h)
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	for name, typ := range pinnedMetrics {
		if got, ok := exp.Types[name]; !ok {
			t.Errorf("missing metric family %s", name)
		} else if got != typ {
			t.Errorf("%s: type %s, want %s", name, got, typ)
		}
	}

	// Key series must reflect the traffic above.
	nonzero := []string{
		`multiem_http_requests_total{endpoint="match"}`,
		`multiem_http_requests_total{endpoint="add"}`,
		`multiem_http_request_duration_seconds_count{endpoint="match"}`,
		`multiem_entities`,
		`multiem_tuples`,
		`multiem_shards`,
		`multiem_epoch`,
		`multiem_ingest_batches_total`,
		`multiem_ingest_rows_total`,
		`multiem_match_duration_seconds_count`,
		`multiem_match_duration_seconds_stage_count{stage="embed"}`,
		`multiem_match_duration_seconds_stage_count{stage="fanout"}`,
		`multiem_match_duration_seconds_stage_count{stage="merge"}`,
		`multiem_ingest_duration_seconds_count`,
		`multiem_ingest_duration_seconds_stage_count{stage="wal_append"}`,
		`multiem_view_build_duration_seconds_count`,
		`multiem_hnsw_searches_total`,
		`multiem_hnsw_nodes_visited_total`,
		`multiem_hnsw_distance_evals_total`,
		`multiem_shard_live_tuples{shard="0"}`,
	}
	for _, series := range nonzero {
		v, ok := exp.Values[series]
		if !ok {
			t.Errorf("missing series %s", series)
			continue
		}
		if v <= 0 {
			t.Errorf("%s = %v, want > 0", series, v)
		}
	}

	// The stage summaries decompose the total: the fan-out stage alone
	// must not exceed the whole request.
	if exp.Values[`multiem_match_duration_seconds_stage_sum{stage="fanout"}`] >
		exp.Values[`multiem_match_duration_seconds_sum`] {
		t.Error("fanout stage sum exceeds match total sum")
	}

	// No matcher installed: every family still renders (0 / no samples),
	// and the exposition stays valid — the scrape target is stable from
	// process start.
	s := newServer(0)
	_, cold := scrape(t, s.handler())
	for name := range pinnedMetrics {
		if _, ok := cold.Types[name]; !ok {
			t.Errorf("cold server missing metric family %s", name)
		}
	}
	if v := cold.Values[`multiem_entities`]; v != 0 {
		t.Errorf("cold multiem_entities = %v, want 0", v)
	}
}

// TestMetricsStatsAgree: /stats endpoint latency must come from the same
// histograms /metrics exports — equal counts, equal p99.
func TestMetricsStatsAgree(t *testing.T) {
	m, d := testMatcher(t)
	s := newServer(0)
	s.setMatcher(m)
	s.ready.Store(true)
	h := s.handler()

	byID := d.EntityByID()
	tuples := m.Result().Tuples
	for i := 0; i < 5; i++ {
		if w := postJSON(t, h, "/match", matchRequest{Values: byID[tuples[i][0]].Values, K: 1}); w.Code != http.StatusOK {
			t.Fatalf("match status %d", w.Code)
		}
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
	stats := decodeBody[statsResponse](t, w)
	_, exp := scrape(t, h)

	es, ok := stats.Endpoints["match"]
	if !ok {
		t.Fatal("no match endpoint in /stats")
	}
	// /stats itself ran one GET after the matches; the match counters see
	// exactly the 5 posts.
	if es.Requests != 5 {
		t.Fatalf("stats requests = %d, want 5", es.Requests)
	}
	if got := exp.Values[`multiem_http_requests_total{endpoint="match"}`]; got != 5 {
		t.Fatalf("metrics requests = %v, want 5", got)
	}
	// Same histogram, so the only allowed difference is the float text
	// round-trip through the exposition.
	gotP99 := exp.Values[`multiem_http_request_duration_seconds{endpoint="match",quantile="0.99"}`] * 1000
	if diff := es.P99Ms - gotP99; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("/stats p99 %vms != /metrics p99 %vms", es.P99Ms, gotP99)
	}
}
