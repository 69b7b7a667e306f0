package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// target is where one client's ops go. The normal run sends them over HTTP
// to the server; the traced run replays the same op sequence through direct
// calls, so the difference between the two is what HTTP and JSON cost. A
// target serves one client goroutine for the whole measured window.
type target interface {
	match(op *matchOp) (reply, error)
	add(op *addOp) (reply, error)
}

// reply is what an op returned. An HTTP target leaves the body raw, to be
// decoded after the slice (decodeMatch, decodeAdd): decoding inside the
// closed loop would charge the harness's JSON work to the server.
type reply struct {
	raw   []byte
	cands []repro.Candidate
	adds  []repro.AddResult
}

// httpTarget is one client connection, kept alive across the window.
type httpTarget struct {
	base   string
	client *http.Client
}

func newHTTPTarget(base string) *httpTarget {
	return &httpTarget{base: base, client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}}
}

// post sends body and returns the reply body; the call ends when the last
// body byte has been read. A non-200 is an error.
func (t *httpTarget) post(path string, body []byte) (reply, error) {
	resp, err := t.client.Post(t.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	return reply{raw: b}, nil
}

func (t *httpTarget) match(op *matchOp) (reply, error) { return t.post("/match", op.body) }
func (t *httpTarget) add(op *addOp) (reply, error)     { return t.post("/add", op.body) }

// decodeMatch parses a raw /match body into the reply's candidates; a
// reply that is not raw is left alone.
func (r *reply) decodeMatch() error {
	if r.raw == nil {
		return nil
	}
	var body struct {
		Candidates []repro.Candidate `json:"candidates"`
	}
	err := json.Unmarshal(r.raw, &body)
	r.cands = body.Candidates
	return err
}

// decodeAdd does the same for a raw /add body.
func (r *reply) decodeAdd() error {
	if r.raw == nil {
		return nil
	}
	var body struct {
		Results []repro.AddResult `json:"results"`
		Warning string            `json:"warning"`
	}
	if err := json.Unmarshal(r.raw, &body); err != nil {
		return err
	}
	if body.Warning != "" {
		return fmt.Errorf("server warning: %s", body.Warning)
	}
	r.adds = body.Results
	return nil
}

// directTarget calls the matcher in-process; every call is one "multiem"
// layer span under the op's root span.
type directTarget struct {
	m  *repro.Matcher
	tr *tracer
}

func (t *directTarget) match(op *matchOp) (rep reply, err error) {
	root := t.tr.begin(0, "bench", "match_op")
	t.tr.span(root, "multiem", "Match", func() { rep.cands, err = t.m.Match(op.rec.values, matchK) })
	t.tr.end(root)
	return rep, err
}

func (t *directTarget) add(op *addOp) (rep reply, err error) {
	rows := op.rows()
	root := t.tr.begin(0, "bench", "add_op")
	t.tr.span(root, "multiem", "AddRecords", func() { rep.adds, err = t.m.AddRecords(rows) })
	t.tr.end(root)
	return rep, err
}

// opResult is one completed op: when it was sent (since the slice began),
// its latency and its reply, or err when it failed. A failed op has no
// latency: it counts as attempted and failed, and as missing any latency
// limit.
type opResult struct {
	start time.Duration
	lat   time.Duration
	reply
	err error
}

// runReaders drives one closed-loop client per op list, client i on
// tgts[i]. Each client sends its list once; with until set it instead
// cycles through the list until until is closed. It returns each client's
// results when every client is done.
func runReaders(ctx context.Context, tgts []target, lists [][]matchOp, until <-chan struct{}) [][]opResult {
	results := make([][]opResult, len(lists))
	var wg sync.WaitGroup
	begin := time.Now()
	for c, ops := range lists {
		wg.Add(1)
		go func(c int, ops []matchOp) {
			defer wg.Done()
			for i := 0; until != nil || i < len(ops); i++ {
				if len(ops) == 0 || stopped(ctx.Done()) || stopped(until) {
					break
				}
				t0 := time.Now()
				rep, err := tgts[c].match(&ops[i%len(ops)])
				results[c] = append(results[c], opResult{start: t0.Sub(begin), lat: time.Since(t0), reply: rep, err: err})
			}
		}(c, ops)
	}
	wg.Wait()
	return results
}

// runWriter sends the batches in order on one closed-loop client.
func runWriter(ctx context.Context, tgt target, batches []addOp) []opResult {
	res := make([]opResult, 0, len(batches))
	begin := time.Now()
	for i := range batches {
		if stopped(ctx.Done()) {
			break
		}
		t0 := time.Now()
		rep, err := tgt.add(&batches[i])
		res = append(res, opResult{start: t0.Sub(begin), lat: time.Since(t0), reply: rep, err: err})
	}
	return res
}

func stopped(ch <-chan struct{}) bool {
	select {
	case <-ch: // a nil channel never fires
		return true
	default:
		return false
	}
}

// round is what the clients observed over one slice of a phase: the rate
// summed over the clients and every latency.
type round struct {
	rate float64         // units per second
	lat  []time.Duration // the successful ops' latencies
}

// roundOf summarizes one slice. unitsPerOp converts ops to the rate's unit
// (1 for requests, the batch size for rows). Failed ops have no latency and
// add nothing to the rate.
func roundOf(clients [][]opResult, unitsPerOp float64) round {
	var rd round
	for _, ops := range clients {
		if len(ops) == 0 {
			continue
		}
		ok := 0
		for _, o := range ops {
			if o.err == nil {
				rd.lat = append(rd.lat, o.lat)
				ok++
			}
		}
		last := ops[len(ops)-1]
		rd.rate += float64(ok) * unitsPerOp / (last.start + last.lat - ops[0].start).Seconds()
	}
	return rd
}

// opCounter tallies attempted and failed operations across a run; every
// check that can fail an op reports here, so nothing is dropped silently.
type opCounter struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	firstErrs []string // the first few failures, for the log
}

func (c *opCounter) attempt(n int) { c.attempted.Add(int64(n)) }

func (c *opCounter) fail(format string, args ...any) {
	c.failed.Add(1)
	c.mu.Lock()
	if len(c.firstErrs) < 5 {
		c.firstErrs = append(c.firstErrs, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}
