package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/multiem"
)

func testMatcher(t *testing.T) (*repro.Matcher, *repro.Dataset) {
	t.Helper()
	d, err := repro.GenerateDataset("Geo", 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	opt := repro.DefaultOptions()
	opt.M = 0.5
	opt.Shards = 4 // exercise the sharded paths through the HTTP layer
	m, err := repro.BuildMatcher(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeBody[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var out T
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode %q: %v", w.Body.String(), err)
	}
	return out
}

func TestHealthz(t *testing.T) {
	m, _ := testMatcher(t)
	h := newHandler(m, 0)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz status %d", w.Code)
	}
	if got := decodeBody[map[string]string](t, w); got["status"] != "ok" {
		t.Fatalf("healthz body %v", got)
	}
}

// TestReadyzGatesTraffic: before the matcher is installed the server must be
// alive (/healthz 200) but not ready (/readyz 503, data endpoints 503);
// installing the matcher flips readiness. This is the window a WAL replay or
// pipeline build occupies at startup.
func TestReadyzGatesTraffic(t *testing.T) {
	s := newServer(0)
	h := s.handler()

	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w
	}
	if w := get("/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz while starting: %d", w.Code)
	}
	if w := get("/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while starting: %d, want 503", w.Code)
	} else if got := decodeBody[map[string]string](t, w); got["status"] != "starting" {
		t.Fatalf("readyz body %v", got)
	} else if w.Header().Get("Retry-After") == "" {
		t.Fatal("starting 503 is missing Retry-After")
	}
	if w := get("/stats"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("stats while starting: %d, want 503", w.Code)
	} else if w.Header().Get("Retry-After") == "" {
		t.Fatal("stats 503 is missing Retry-After")
	}
	if w := postJSON(t, h, "/match", matchRequest{Values: []string{"x", "1", "2"}}); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("match while starting: %d, want 503", w.Code)
	}
	if w := postJSON(t, h, "/add", addRequest{Records: [][]string{{"x", "1", "2"}}}); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("add while starting: %d, want 503", w.Code)
	}

	// Installing the matcher is not enough: /readyz stays 503 (now
	// "warming up" rather than "starting") until the warmup probes have
	// run, though the data endpoints themselves can already answer.
	m, _ := testMatcher(t)
	s.warmupK = 4
	s.setMatcher(m)
	if w := get("/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before warmup: %d, want 503", w.Code)
	} else if got := decodeBody[map[string]string](t, w); got["status"] != "warming up" {
		t.Fatalf("readyz body %v", got)
	} else if w.Header().Get("Retry-After") == "" {
		t.Fatal("warming-up 503 is missing Retry-After")
	}
	if w := get("/stats"); w.Code != http.StatusOK {
		t.Fatalf("stats after install: %d", w.Code)
	}

	s.warmup()
	if w := get("/readyz"); w.Code != http.StatusOK {
		t.Fatalf("readyz after warmup: %d", w.Code)
	} else if got := decodeBody[map[string]string](t, w); got["status"] != "ready" {
		t.Fatalf("readyz body %v", got)
	}
}

func TestStats(t *testing.T) {
	m, d := testMatcher(t)
	h := newHandler(m, 0)
	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("stats status %d: %s", w.Code, w.Body)
	}
	got := decodeBody[statsResponse](t, w)
	if got.Entities != d.NumEntities() {
		t.Fatalf("stats entities %d, want %d", got.Entities, d.NumEntities())
	}
	if got.Matched == 0 || len(got.Attrs) == 0 {
		t.Fatalf("stats look empty: %+v", got)
	}
	if got.Shards != 4 || len(got.PerShard) != 4 {
		t.Fatalf("stats report %d shards and %d per-shard entries, want 4", got.Shards, len(got.PerShard))
	}
	var ents, tuples int
	for i, ss := range got.PerShard {
		if ss.Shard != i {
			t.Fatalf("per-shard entry %d labelled shard %d", i, ss.Shard)
		}
		ents += ss.Entities
		tuples += ss.Tuples
	}
	if ents != got.Entities || tuples != got.Tuples {
		t.Fatalf("per-shard sums (%d entities, %d tuples) disagree with totals %+v", ents, tuples, got.MatcherStats)
	}
	if got.Epoch != 0 {
		t.Fatalf("fresh matcher reports epoch %d, want 0", got.Epoch)
	}
	// Every committed /add batch advances the epoch by exactly one.
	if w := postJSON(t, h, "/add", addRequest{Records: [][]string{{"epoch probe", "1.0", "2.0"}}}); w.Code != http.StatusOK {
		t.Fatalf("add: %d: %s", w.Code, w.Body)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if got := decodeBody[statsResponse](t, w); got.Epoch != 1 {
		t.Fatalf("epoch after one /add batch: %d, want 1", got.Epoch)
	}
}

// TestTuplesStream: /tuples streams the same tuples Tuples() materializes,
// one NDJSON line each in global tuple-ID order, labelled with the pinned
// epoch; min_members=1 adds the singletons and limit truncates the stream.
func TestTuplesStream(t *testing.T) {
	m, _ := testMatcher(t)
	h := newHandler(m, 0)

	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w
	}
	w := get("/tuples")
	if w.Code != http.StatusOK {
		t.Fatalf("tuples status %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("Multiem-Epoch"); got != "0" {
		t.Fatalf("Multiem-Epoch %q, want 0 on a fresh matcher", got)
	}
	var got []tupleEntry
	dec := json.NewDecoder(w.Body)
	for dec.More() {
		var e tupleEntry
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("decode stream: %v", err)
		}
		got = append(got, e)
	}
	tuples, confs := m.Tuples()
	if len(got) != len(tuples) {
		t.Fatalf("streamed %d tuples, Tuples() returns %d", len(got), len(tuples))
	}
	lastID := -1
	for i, e := range got {
		if !slicesEqual(e.Members, tuples[i]) || e.Confidence != confs[i] {
			t.Fatalf("stream line %d = %+v, want members %v conf %v", i, e, tuples[i], confs[i])
		}
		if e.ID <= lastID {
			t.Fatalf("stream IDs not ascending: %d after %d", e.ID, lastID)
		}
		lastID = e.ID
	}

	// min_members=1 includes singletons: line count equals total tuples.
	w = get("/tuples?min_members=1")
	all := strings.Count(w.Body.String(), "\n")
	if want := m.Stats().Tuples; all != want {
		t.Fatalf("min_members=1 streamed %d lines, want %d (all tuples)", all, want)
	}
	if w = get("/tuples?limit=3"); strings.Count(w.Body.String(), "\n") != 3 {
		t.Fatalf("limit=3 streamed %q", w.Body)
	}
	if w = get("/tuples?min_members=junk"); w.Code != http.StatusBadRequest {
		t.Fatalf("junk min_members: %d, want 400", w.Code)
	}
}

func slicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAddBadRowIndexed: an /add batch with one malformed row must come back
// as a 400 whose JSON error names the offending row, not a 500 and not a
// bare message.
func TestAddBadRowIndexed(t *testing.T) {
	m, d := testMatcher(t)
	h := newHandler(m, 0)
	byID := d.EntityByID()
	good := byID[m.Result().Tuples[0][0]].Values

	before := m.Stats().Entities
	w := postJSON(t, h, "/add", addRequest{Records: [][]string{good, {"only-one-value"}, good}})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("add with bad row: status %d, want 400 (body %s)", w.Code, w.Body)
	}
	got := decodeBody[errorResponse](t, w)
	if got.Row == nil || *got.Row != 1 {
		t.Fatalf("error %+v does not point at row 1", got)
	}
	if got.Error == "" {
		t.Fatal("error body missing message")
	}
	if after := m.Stats().Entities; after != before {
		t.Fatalf("rejected batch still ingested rows: %d -> %d entities", before, after)
	}

	// A malformed single /match record is also a 400, but carries no row.
	w = postJSON(t, h, "/match", matchRequest{Values: []string{"too", "short"}, K: 1})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("match with bad arity: status %d, want 400", w.Code)
	}
	if got := decodeBody[errorResponse](t, w); got.Row != nil {
		t.Fatalf("match error %+v must not carry a batch row", got)
	}
}

// TestMatchKnownDuplicate: a /match request for a record the pipeline placed
// in a tuple must return that tuple first.
func TestMatchKnownDuplicate(t *testing.T) {
	m, d := testMatcher(t)
	h := newHandler(m, 0)
	byID := d.EntityByID()
	id := m.Result().Tuples[0][0]

	w := postJSON(t, h, "/match", matchRequest{Values: byID[id].Values, K: 3})
	if w.Code != http.StatusOK {
		t.Fatalf("match status %d: %s", w.Code, w.Body)
	}
	got := decodeBody[matchResponse](t, w)
	if len(got.Candidates) == 0 {
		t.Fatal("no candidates for a known duplicate")
	}
	found := false
	for _, eid := range got.Candidates[0].EntityIDs {
		if eid == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("top candidate %+v does not contain entity %d", got.Candidates[0], id)
	}
}

func TestAddThenMatch(t *testing.T) {
	m, d := testMatcher(t)
	h := newHandler(m, 0)
	byID := d.EntityByID()
	id := m.Result().Tuples[0][0]
	values := byID[id].Values

	w := postJSON(t, h, "/add", addRequest{Records: [][]string{values}})
	if w.Code != http.StatusOK {
		t.Fatalf("add status %d: %s", w.Code, w.Body)
	}
	added := decodeBody[addResponse](t, w)
	if len(added.Results) != 1 || !added.Results[0].Absorbed {
		t.Fatalf("add results %+v, want one absorbed record", added.Results)
	}

	w = postJSON(t, h, "/match", matchRequest{Values: values, K: 1})
	got := decodeBody[matchResponse](t, w)
	if len(got.Candidates) == 0 || got.Candidates[0].Tuple != added.Results[0].Tuple {
		t.Fatalf("match after add returned %+v, want tuple %d", got.Candidates, added.Results[0].Tuple)
	}
}

func TestBadRequests(t *testing.T) {
	m, _ := testMatcher(t)
	h := newHandler(m, 0)

	cases := []struct {
		method, path, body string
		wantStatus         int
	}{
		{http.MethodPost, "/match", `{"values": []}`, http.StatusBadRequest},
		{http.MethodPost, "/match", `{bad json`, http.StatusBadRequest},
		{http.MethodPost, "/match", `{"unknown_field": 1}`, http.StatusBadRequest},
		{http.MethodPost, "/add", `{"records": []}`, http.StatusBadRequest},
		{http.MethodPost, "/match", `{"values": ["too", "short"]}`, http.StatusBadRequest},
		{http.MethodPost, "/add", `{"records": [["width", "does", "not", "fit"]]}`, http.StatusBadRequest},
		{http.MethodGet, "/match", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/healthz", "", http.StatusMethodNotAllowed},
		{http.MethodGet, "/nope", "", http.StatusNotFound},
	}
	for _, c := range cases {
		req := httptest.NewRequest(c.method, c.path, bytes.NewReader([]byte(c.body)))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != c.wantStatus {
			t.Errorf("%s %s (%q): status %d, want %d", c.method, c.path, c.body, w.Code, c.wantStatus)
		}
	}
}

// TestSaveThenLoadServes is the end-to-end persistence path: a matcher saved
// to disk (as cmd/multiem -save-index does) is loaded back (as the server's
// -load-index does) and answers a /match request for a known duplicate.
func TestSaveThenLoadServes(t *testing.T) {
	m, d := testMatcher(t)
	path := filepath.Join(t.TempDir(), "matcher.bin")
	if err := repro.SaveMatcherFile(m, path); err != nil {
		t.Fatalf("SaveMatcherFile: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}

	opt := repro.DefaultOptions()
	opt.M = 0.5
	loaded, err := loadOrBuild(path, "", "", 0, 1, opt)
	if err != nil {
		t.Fatalf("loadOrBuild: %v", err)
	}
	h := newHandler(loaded, 0)

	byID := d.EntityByID()
	id := m.Result().Tuples[0][0]
	w := postJSON(t, h, "/match", matchRequest{Values: byID[id].Values, K: 1})
	if w.Code != http.StatusOK {
		t.Fatalf("match status %d: %s", w.Code, w.Body)
	}
	got := decodeBody[matchResponse](t, w)
	if len(got.Candidates) == 0 {
		t.Fatal("loaded matcher returned no candidates")
	}
	found := false
	for _, eid := range got.Candidates[0].EntityIDs {
		if eid == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("loaded matcher: top candidate %+v does not contain entity %d", got.Candidates[0], id)
	}
}

// TestConcurrentRequests hammers /match from several goroutines while /add
// ingests, exercising the matcher's read/write locking through the HTTP
// layer (meaningful under -race).
func TestConcurrentRequests(t *testing.T) {
	m, d := testMatcher(t)
	h := newHandler(m, 0)
	byID := d.EntityByID()
	values := byID[m.Result().Tuples[0][0]].Values

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				w := postJSON(t, h, "/match", matchRequest{Values: values, K: 2})
				if w.Code != http.StatusOK {
					t.Errorf("match status %d", w.Code)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		rows := [][]string{{fmt.Sprintf("fresh-%d zz yy", i), "1.0", "2.0"}}
		if w := postJSON(t, h, "/add", addRequest{Records: rows}); w.Code != http.StatusOK {
			t.Fatalf("add status %d", w.Code)
		}
	}
	wg.Wait()
}

// TestAddBodyCap413: an /add body over -max-add-bytes must come back as a
// 413 (split the batch), not a 400 (fix the payload), and must not ingest.
func TestAddBodyCap413(t *testing.T) {
	m, d := testMatcher(t)
	h := newHandler(m, 256) // tiny cap so the test payload trips it
	byID := d.EntityByID()
	good := byID[m.Result().Tuples[0][0]].Values

	big := make([][]string, 64)
	for i := range big {
		big[i] = good
	}
	before := m.Stats().Entities
	w := postJSON(t, h, "/add", addRequest{Records: big})
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized add: status %d, want 413 (body %s)", w.Code, w.Body)
	}
	if got := decodeBody[errorResponse](t, w); got.Error == "" {
		t.Fatal("413 body missing error message")
	}
	if after := m.Stats().Entities; after != before {
		t.Fatalf("oversized batch still ingested rows: %d -> %d entities", before, after)
	}

	// A batch under the cap still works, and /match keeps its own 8MiB cap.
	if w := postJSON(t, h, "/add", addRequest{Records: [][]string{good}}); w.Code != http.StatusOK {
		t.Fatalf("small add under tiny cap: status %d (body %s)", w.Code, w.Body)
	}
	if w := postJSON(t, h, "/match", matchRequest{Values: good, K: 1}); w.Code != http.StatusOK {
		t.Fatalf("match with tiny add cap: status %d", w.Code)
	}
}

// TestStatsReportsWAL: a durable matcher surfaces WAL segment counts and
// bytes through /stats; an in-memory matcher omits the section.
func TestStatsReportsWAL(t *testing.T) {
	m, _ := testMatcher(t)
	h := newHandler(m, 0)
	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if got := decodeBody[statsResponse](t, w); got.WAL != nil {
		t.Fatalf("in-memory matcher reported WAL stats: %+v", got.WAL)
	}

	d, err := repro.GenerateDataset("Geo", 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	opt := repro.DefaultOptions()
	opt.M = 0.5
	opt.Shards = 2
	durable, err := repro.RecoverMatcher(
		repro.WALConfig{Dir: t.TempDir(), Fsync: "off"}, opt,
		func() (*repro.Matcher, error) { return repro.BuildMatcher(d, opt) })
	if err != nil {
		t.Fatal(err)
	}
	defer durable.CloseWAL()
	h = newHandler(durable, 0)

	byID := d.EntityByID()
	good := byID[durable.Result().Tuples[0][0]].Values
	if w := postJSON(t, h, "/add", addRequest{Records: [][]string{good}}); w.Code != http.StatusOK {
		t.Fatalf("durable add: status %d (body %s)", w.Code, w.Body)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
	got := decodeBody[statsResponse](t, w)
	if got.WAL == nil || !got.WAL.Enabled {
		t.Fatalf("durable matcher did not report WAL stats: %s", w.Body.String())
	}
	if got.WAL.Segments == 0 || got.WAL.Bytes == 0 || got.WAL.Appends == 0 {
		t.Fatalf("WAL stats look empty after an ingest: %+v", got.WAL)
	}
	if got.WAL.Fsync != "off" || got.WAL.NextSeq != 1 {
		t.Fatalf("WAL stats wrong: %+v", got.WAL)
	}
}

// TestFollowerWritesRejected: a read-only replica answers /match but bounces
// /add with a 503 + Retry-After pointing writers at the primary — the
// client-visible half of the replication fence.
func TestFollowerWritesRejected(t *testing.T) {
	m, d := testMatcher(t)
	multiem.NewReplicator(m, 0) // flips the matcher read-only, as a follower does
	s := newServer(0)
	s.primaryHint = "http://primary.example:8080"
	s.setMatcher(m)
	s.ready.Store(true)
	h := s.handler()

	w := postJSON(t, h, "/add", addRequest{Records: [][]string{{"x", "1", "2"}}})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("follower add: status %d, want 503 (body %s)", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("follower-write 503 is missing Retry-After")
	}
	if got := decodeBody[errorResponse](t, w); !strings.Contains(got.Error, "http://primary.example:8080") {
		t.Fatalf("follower-write error does not name the primary: %q", got.Error)
	}

	byID := d.EntityByID()
	q := byID[m.Result().Tuples[0][0]].Values
	if w := postJSON(t, h, "/match", matchRequest{Values: q}); w.Code != http.StatusOK {
		t.Fatalf("follower match: status %d (body %s)", w.Code, w.Body)
	}

	// No replication feed on an unpromoted follower: /repl/* is 503 too.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/repl/manifest", nil))
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
		t.Fatalf("repl feed on follower: status %d, want 503 with Retry-After", w.Code)
	}
	// And /promote on a node that is not a follower process is a 409.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/promote", nil))
	if w.Code != http.StatusConflict {
		t.Fatalf("promote on non-follower: status %d, want 409", w.Code)
	}
}
