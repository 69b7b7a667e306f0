package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/repl"
)

// maxBodyBytes bounds single-record request bodies (match payloads).
const maxBodyBytes = 8 << 20

// defaultMaxAddBytes is the default cap for /add bodies: it is the batched
// ingest path, and a batch is partitioned across the matcher's shards and
// applied concurrently, so bulk payloads are the intended use. Operators
// resize it with -max-add-bytes.
const defaultMaxAddBytes = 64 << 20

// server exposes a repro.Matcher over HTTP. All handlers speak JSON. The
// matcher is hash-sharded with epoch-based copy-on-write reads: /match and
// /stats pin one immutable view (lock-free, batch-atomic across shards) and
// /add batches commit with a single view swap — so read traffic never waits
// on ingest or on a checkpoint in flight.
//
// The matcher is installed after startup finishes (building the pipeline, or
// recovering a WAL can take a while): the listener comes up first so
// orchestrators can probe /readyz, which serves 503 until recovery
// completes. /healthz is pure liveness and is 200 as soon as the socket is
// open; data endpoints answer 503 while the matcher is still loading.
type server struct {
	// m is nil until setMatcher installs the recovered matcher; handlers
	// load it once per request. In follower role the serving matcher lives
	// inside the Follower instead (it is swapped on resync) — see
	// currentMatcher.
	m atomic.Pointer[repro.Matcher]
	// ready gates /readyz: set only after the matcher is installed AND the
	// warmup probes have run, so an orchestrator never routes traffic at a
	// process still paying cold-start costs.
	ready atomic.Bool
	// primary serves the replication feed (/repl/*) when this process runs
	// with a WAL; nil otherwise, and on an unpromoted follower.
	primary atomic.Pointer[repl.Primary]
	// follower is set in follower role; its Matcher answers reads and its
	// Stats feed /stats replication lag.
	follower atomic.Pointer[repl.Follower]
	// primaryHint is the primary's URL, quoted in follower-write 503s so
	// clients know where writes go.
	primaryHint string
	// walDir is the durability (or mirror) directory; promotion reopens the
	// replication feed from it.
	walDir string
	// warmupK is how many probe matches gate readiness.
	warmupK int
	// promoteOnce makes the manual and auto promotion paths converge on one
	// role flip.
	promoteOnce sync.Once
	// maxAddBytes caps /add request bodies; larger payloads get a 413.
	maxAddBytes int64
	start       time.Time
	// reg is the process metrics registry behind /metrics; every series —
	// HTTP endpoints, matcher, WAL, replication, HNSW — is registered on
	// it (see metrics.go), and /stats reads the same handles, so the two
	// surfaces cannot drift apart.
	reg *obs.Registry
	// endpoints holds the per-data-endpoint registry handles ("match",
	// "add"); the instrument wrapper records into them and /stats
	// summarizes from them.
	endpoints map[string]*endpointMetrics
}

// endpointMetrics is one route's registry handles: request/error counters
// and the handler latency summary, shared by /metrics and /stats.
type endpointMetrics struct {
	requests *obs.Counter
	errors   *obs.Counter // responses with status >= 400
	lat      *obs.Summary
}

// newServer builds a not-yet-ready server. maxAddBytes <= 0 keeps the
// default /add body cap.
func newServer(maxAddBytes int64) *server {
	if maxAddBytes <= 0 {
		maxAddBytes = defaultMaxAddBytes
	}
	s := &server{
		maxAddBytes: maxAddBytes,
		start:       time.Now(),
		reg:         obs.NewRegistry(),
		endpoints:   map[string]*endpointMetrics{},
	}
	for _, name := range []string{"match", "add"} {
		s.endpoints[name] = &endpointMetrics{
			requests: s.reg.Counter("multiem_http_requests_total",
				"Requests handled, by data endpoint.", obs.L("endpoint", name)),
			errors: s.reg.Counter("multiem_http_errors_total",
				"Responses with status >= 400, by data endpoint.", obs.L("endpoint", name)),
			lat: s.reg.Summary("multiem_http_request_duration_seconds",
				"Handler latency (request entry to last byte written), by data endpoint.", obs.L("endpoint", name)),
		}
	}
	s.registerMetrics()
	return s
}

// setMatcher installs the matcher; /readyz stays 503 until warmup flips
// ready. Called once, after loadOrBuild / RecoverMatcher return.
func (s *server) setMatcher(m *repro.Matcher) { s.m.Store(m) }

// setPrimary enables the replication feed endpoints.
func (s *server) setPrimary(p *repl.Primary) { s.primary.Store(p) }

// setFollower installs the follower whose Matcher answers reads.
func (s *server) setFollower(f *repl.Follower) { s.follower.Store(f) }

// currentMatcher is the serving matcher: the installed one, or — in
// follower role — whatever the follower currently publishes (nil until its
// bootstrap completes, swapped wholesale on resync).
func (s *server) currentMatcher() *repro.Matcher {
	if m := s.m.Load(); m != nil {
		return m
	}
	if f := s.follower.Load(); f != nil {
		return f.Matcher()
	}
	return nil
}

// warmup runs K probe matches through the serving matcher and then flips
// /readyz to ready. The first queries after a recovery, bootstrap, or
// promotion pay one-time costs (page cache, ANN search scratch, branch-cold
// code); the probes absorb them so real traffic never does. K <= 0 skips
// straight to ready.
func (s *server) warmup() {
	m := s.currentMatcher()
	if m != nil && s.warmupK > 0 {
		row := make([]string, len(m.Schema()))
		for i := range row {
			row[i] = fmt.Sprintf("warmup probe %d", i)
		}
		for i := 0; i < s.warmupK; i++ {
			if _, err := m.Match(row, 1); err != nil {
				slog.Warn("warmup probe failed", "probe", i, "err", err)
				break
			}
		}
	}
	s.ready.Store(true)
}

// finishPromotion flips a follower into serving primary: the promoted
// matcher is installed, readiness drops while warmup probes re-run (the
// role change invalidates the same caches a restart would), and the
// replication feed reopens from the mirror directory so new followers can
// chain off this node. Manual (/promote) and automatic (PromoteAfter)
// promotion both land here; only the first caller acts.
func (s *server) finishPromotion(f *repl.Follower) {
	s.promoteOnce.Do(func() {
		s.ready.Store(false)
		m := f.Matcher()
		s.m.Store(m)
		if p, err := repl.NewPrimary(m, s.walDir); err != nil {
			slog.Error("promoted, but cannot serve a replication feed", "err", err)
		} else {
			s.primary.Store(p)
		}
		s.warmup()
		st := m.WALStats()
		slog.Info("promoted to primary", "term", f.Term(), "next_seq", st.NextSeq, "wal_dir", s.walDir)
	})
}

// handler builds the route table. The data endpoints are wrapped with
// latency/count instrumentation; the health and stats probes are not (a
// metrics scrape must not perturb the numbers it reads).
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /match", s.instrument("match", s.handleMatch))
	mux.HandleFunc("POST /add", s.instrument("add", s.handleAdd))
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /tuples", s.handleTuples)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("POST /promote", s.handlePromote)
	mux.HandleFunc("GET /repl/manifest", s.replHandler((*repl.Primary).HandleManifest))
	mux.HandleFunc("GET /repl/snapshot/{seq}", s.replHandler((*repl.Primary).HandleSnapshot))
	mux.HandleFunc("GET /repl/segment/{index}", s.replHandler((*repl.Primary).HandleSegment))
	return mux
}

// replHandler adapts a Primary method into a route that answers 503 until a
// replication feed exists — this process runs without a WAL, or is a
// follower that has not been promoted.
func (s *server) replHandler(h func(*repl.Primary, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		p := s.primary.Load()
		if p == nil {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "no replication feed here: this node runs without -wal-dir, or is an unpromoted follower")
			return
		}
		h(p, w, r)
	}
}

// handlePromote flips a follower into a writable primary: the fetch loop
// stops, the fencing term bumps, the incomplete trailing batch (if any) is
// dropped exactly like crash recovery, and the mirror reopens for append.
func (s *server) handlePromote(w http.ResponseWriter, r *http.Request) {
	f := s.follower.Load()
	if f == nil {
		writeError(w, http.StatusConflict, "this node is not a follower")
		return
	}
	if err := f.Promote(); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.finishPromotion(f)
	st := f.Stats()
	writeJSON(w, http.StatusOK, map[string]any{"role": "primary", "term": f.Term(), "next_seq": st.NextSeq})
}

// instrument wraps a data-endpoint handler to record request count, error
// count, and handler latency (entry to last byte written) into the named
// endpoint's metrics.
func (s *server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	m := s.endpoints[name]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		m.requests.Inc()
		if sw.status >= 400 {
			m.errors.Inc()
		}
		m.lat.Observe(time.Since(start))
	}
}

// statusWriter captures the response status for the error counter. A
// handler that writes a body without an explicit WriteHeader gets net/http's
// implicit 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// newHandler is the ready-at-construction convenience used by tests: the
// matcher is installed immediately and readiness is not warmup-gated.
func newHandler(m *repro.Matcher, maxAddBytes int64) http.Handler {
	s := newServer(maxAddBytes)
	s.setMatcher(m)
	s.ready.Store(true)
	return s.handler()
}

// matcher returns the serving matcher, or writes a 503 (with Retry-After,
// so well-behaved clients pace their retries) and returns nil while the
// server is still starting up — building, WAL-recovering, or waiting for
// the follower bootstrap.
func (s *server) matcher(w http.ResponseWriter) *repro.Matcher {
	m := s.currentMatcher()
	if m == nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "matcher is starting up (building or recovering); poll /readyz")
	}
	return m
}

type matchRequest struct {
	// Values is the record, ordered by the matcher's schema.
	Values []string `json:"values"`
	// K is the number of candidate tuples wanted (default 1).
	K int `json:"k"`
}

type matchResponse struct {
	Candidates []repro.Candidate `json:"candidates"`
}

type addRequest struct {
	Records [][]string `json:"records"`
}

type addResponse struct {
	Results []repro.AddResult `json:"results"`
}

type statsResponse struct {
	repro.MatcherStats
	// Epoch is the matcher's view epoch: the number of ingest batches
	// committed since this process installed the matcher. Two /stats
	// responses with the same epoch describe identical state.
	Epoch uint64 `json:"epoch"`
	// PerShard breaks the totals down by shard, so a hot or bloated shard
	// is visible without attaching a debugger.
	PerShard []repro.ShardStats `json:"per_shard"`
	// WAL reports the durability subsystem — log segment counts and bytes,
	// sequence numbers, snapshots — when the server runs with -wal-dir.
	WAL *repro.WALStats `json:"wal,omitempty"`
	// Role is this node's replication role: "standalone" (no WAL),
	// "primary" (serving a replication feed), or "follower".
	Role string `json:"role"`
	// Replication is the follower's shipping position — lag in batches and
	// bytes, fetch counters, time since primary contact — absent on a
	// primary or standalone node.
	Replication *repl.Stats `json:"replication,omitempty"`
	// Endpoints holds per-data-endpoint request counters and handler
	// latency percentiles since process start, keyed "match" and "add" —
	// the server-side view an open-loop load driver reconciles its
	// client-side histograms against.
	Endpoints map[string]endpointSummary `json:"endpoints"`
	// UptimeSeconds is wall time since the listener came up.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// endpointSummary is one route's /stats latency entry.
type endpointSummary struct {
	// Requests and Errors count handled requests and >= 400 responses
	// since process start.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// Handler latency percentiles (ms): request entry to last byte
	// written, excluding kernel/network time.
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// summary freezes an endpoint's /stats entry from the same registry
// handles /metrics scrapes, so the two surfaces report one truth.
func (m *endpointMetrics) summary() endpointSummary {
	s := m.lat.Snapshot()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return endpointSummary{
		Requests: m.requests.Value(),
		Errors:   m.errors.Value(),
		P50Ms:    ms(s.Quantile(0.50)),
		P90Ms:    ms(s.Quantile(0.90)),
		P99Ms:    ms(s.Quantile(0.99)),
		P999Ms:   ms(s.Quantile(0.999)),
		MaxMs:    ms(time.Duration(s.Max)),
		MeanMs:   ms(s.Mean()),
	}
}

type errorResponse struct {
	Error string `json:"error"`
	// Row points at the offending row of an /add batch (absent otherwise),
	// so clients can fix the one bad record instead of bisecting the batch.
	Row *int `json:"row,omitempty"`
}

func (s *server) handleMatch(w http.ResponseWriter, r *http.Request) {
	m := s.matcher(w)
	if m == nil {
		return
	}
	var req matchRequest
	if !decode(w, r, &req, maxBodyBytes) {
		return
	}
	if len(req.Values) == 0 {
		writeError(w, http.StatusBadRequest, "values is required")
		return
	}
	cands, err := m.Match(req.Values, req.K)
	if err != nil {
		writeMatcherError(w, err)
		return
	}
	if cands == nil {
		cands = []repro.Candidate{} // encode as [], not null
	}
	writeJSON(w, http.StatusOK, matchResponse{Candidates: cands})
}

func (s *server) handleAdd(w http.ResponseWriter, r *http.Request) {
	m := s.matcher(w)
	if m == nil {
		return
	}
	var req addRequest
	if !decode(w, r, &req, s.maxAddBytes) {
		return
	}
	if len(req.Records) == 0 {
		writeError(w, http.StatusBadRequest, "records is required")
		return
	}
	results, err := m.AddRecords(req.Records)
	if err != nil {
		// A follower takes no writes: point the client at the primary and
		// tell it when to retry here (after a promotion, this node would
		// accept the batch).
		if errors.Is(err, repro.ErrReadOnly) {
			w.Header().Set("Retry-After", "1")
			msg := "this node is a read-only follower; send writes to the primary"
			if s.primaryHint != "" {
				msg += " at " + s.primaryHint
			}
			writeError(w, http.StatusServiceUnavailable, msg)
			return
		}
		writeMatcherError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, addResponse{Results: results})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	m := s.matcher(w)
	if m == nil {
		return
	}
	// One pinned epoch view for everything — totals, per-shard breakdown,
	// and the epoch labelling them — so the totals always equal the
	// per-shard sums and two responses carrying the same epoch describe
	// identical state, even with batches committing mid-request.
	stats, perShard, epoch := m.StatsWithShards()
	resp := statsResponse{
		MatcherStats:  stats,
		Epoch:         epoch,
		PerShard:      perShard,
		Endpoints:     map[string]endpointSummary{},
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	for name, m := range s.endpoints {
		resp.Endpoints[name] = m.summary()
	}
	if ws := m.WALStats(); ws.Enabled {
		resp.WAL = &ws
	}
	resp.Role = "standalone"
	if s.primary.Load() != nil {
		resp.Role = "primary"
	}
	if f := s.follower.Load(); f != nil && !f.Promoted() {
		rs := f.Stats()
		resp.Role = rs.Role
		resp.Replication = &rs
	}
	writeJSON(w, http.StatusOK, resp)
}

// tupleEntry is one line of the /tuples NDJSON stream.
type tupleEntry struct {
	// ID is the tuple's stable global ID (shard in the high bits).
	ID int `json:"id"`
	// Members is the tuple's member entity IDs, sorted ascending.
	Members []int `json:"members"`
	// Confidence is the tuple's merge-path confidence.
	Confidence float64 `json:"confidence"`
}

// handleTuples streams the matcher's tuples as NDJSON, one object per line.
// The walk runs over a single pinned epoch view via the matcher's cursor API,
// so it is lock-free, consistent (the epoch it reports in the Multiem-Epoch
// header labels every line), and constant-memory on the server no matter how
// large the state — unlike a materialized dump, the response is produced
// tuple by tuple while ingest keeps committing. Query parameters:
// min_members (default 2; 1 includes singletons) and limit (0 = all).
func (s *server) handleTuples(w http.ResponseWriter, r *http.Request) {
	m := s.matcher(w)
	if m == nil {
		return
	}
	minMembers, ok := intParam(w, r, "min_members", 2)
	if !ok {
		return
	}
	limit, ok := intParam(w, r, "limit", 0)
	if !ok {
		return
	}
	c := m.TupleCursor(minMembers)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Multiem-Epoch", strconv.FormatUint(c.Epoch(), 10))
	enc := json.NewEncoder(w)
	for n := 0; c.Next() && (limit <= 0 || n < limit); n++ {
		if err := enc.Encode(tupleEntry{ID: c.ID(), Members: c.Members(), Confidence: c.Confidence()}); err != nil {
			return // client went away; nothing sensible to write
		}
	}
}

// intParam parses an optional non-negative integer query parameter, writing
// a 400 and returning ok=false on junk.
func intParam(w http.ResponseWriter, r *http.Request, name string, def int) (int, bool) {
	q := r.URL.Query().Get(name)
	if q == "" {
		return def, true
	}
	v, err := strconv.Atoi(q)
	if err != nil || v < 0 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("%s must be a non-negative integer, got %q", name, q))
		return 0, false
	}
	return v, true
}

// handleHealthz is pure liveness: 200 as soon as the process accepts
// connections, even while the matcher is still building or replaying its
// WAL. Orchestrators that need "can it serve" must use /readyz.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 503 until the matcher is installed AND the
// warmup probes have completed — startup can spend minutes in a pipeline
// build, a WAL replay, or a follower bootstrap, and right after any of
// those (or a promotion) the first real queries would pay cold-start costs
// the probes exist to absorb. The process is alive throughout but must not
// receive routed traffic.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		status := "starting"
		if s.currentMatcher() != nil {
			status = "warming up"
		}
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": status})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// decode parses a JSON request body into dst, writing a 400 on malformed
// input — or a 413 when the body blows the size cap, so clients can tell
// "split the batch" apart from "fix the payload" — and returning false.
func decode(w http.ResponseWriter, r *http.Request, dst any, maxBytes int64) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes; split the batch or raise -max-add-bytes", tooLarge.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
		return false
	}
	return true
}

// writeMatcherError maps a matcher error to an HTTP response: malformed input
// (an arity mismatch) is the client's fault — 400, with the offending batch
// row index when there is one — and anything else is a 500.
func writeMatcherError(w http.ResponseWriter, err error) {
	var arity *repro.ArityError
	if errors.As(err, &arity) {
		resp := errorResponse{Error: err.Error()}
		if arity.Row >= 0 {
			row := arity.Row
			resp.Row = &row
		}
		writeJSON(w, http.StatusBadRequest, resp)
		return
	}
	writeError(w, http.StatusInternalServerError, err.Error())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Warn("encode response failed", "err", err)
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}
