package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro"
	"repro/internal/obs"
)

// metricValue is one reported number. N is the sample count behind it and
// Pct, for a latency tail, the percentile it was taken at.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Pct   float64 `json:"pct,omitempty"`
}

// run is one workload execution: inputs from the seed, a scratch directory
// and server processes that never outlive it, and the metrics and failed
// checks it produced.
type run struct {
	ctx    context.Context
	sp     spec
	seed   int64
	trace  bool
	setups int // set-up repetitions; setup_s is their median
	logf   func(format string, args ...any)

	root  string // checkout root
	dir   string // scratch directory, removed by cleanup
	bin   string // server binary
	procs []*serverProc

	ops     opCounter
	metrics map[string]metricValue
	tracer  *tracer
	ref     *reference
}

// state is one set-up's product: the serving state, where it was saved, the
// server started on it, and the ground truth that goes with it.
type state struct {
	c *corpus
	// m is the state as built, kept until the warm-up has compared the
	// server's answers with it.
	m         *repro.Matcher
	selected  []int // attribute positions the pipeline selected
	indexSize int   // centroid vectors in the saved state's indexes
	path      string
	walDir    string
	args      []string
	srv       *serverProc
	truth     map[int]int // entity ID -> key, for every entity in the state
	prepop    map[int]int // the same, prepopulated entities only
	initial   int         // entities in the saved state
	// acks holds the server's /add replies by batch (nil for a failed one);
	// the traced replay must reproduce them.
	acks [][]repro.AddResult
}

func matcherOptions() repro.Options {
	opt := repro.DefaultOptions()
	opt.M = 0.5 // the server's -m default
	opt.Shards = shards
	return opt
}

func (r *run) set(name string, v float64, n int) {
	r.setPct(name, v, n, 0)
}

// setPct is set for a latency tail: pct is the percentile it was taken at.
func (r *run) setPct(name string, v float64, n int, pct float64) {
	unit := ""
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				unit = d.unit
			}
		}
	}
	if unit == "" {
		panic("metric " + name + " is not in the catalogue (spec.go)")
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit, N: n, Pct: pct}
}

// check records a failed correctness check as a failed operation.
func (r *run) check(ok bool, format string, args ...any) {
	r.ops.attempt(1)
	if !ok {
		r.ops.fail(format, args...)
	}
}

// start launches a server that cleanup will reap if nothing else does.
func (r *run) start(args []string) (*serverProc, error) {
	p, err := startServer(r.ctx, r.bin, args...)
	if err != nil {
		return nil, err
	}
	r.procs = append(r.procs, p)
	return p, nil
}

// cleanup kills every server still running and removes the scratch
// directory. It runs on every exit path of execute.
func (r *run) cleanup() {
	for _, p := range r.procs {
		if !stopped(p.exited) {
			p.kill()
		}
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// execute runs the workload's life cycle and fills r.metrics.
func (r *run) execute() error {
	defer r.cleanup()
	r.metrics = map[string]metricValue{}
	var err error
	if r.root, err = repoRoot(); err != nil {
		return err
	}
	outDir := filepath.Join(r.root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if r.dir, err = os.MkdirTemp(outDir, "run-"+r.sp.name+"-"); err != nil {
		return err
	}
	var buildTime time.Duration
	if r.bin, buildTime, err = buildServer(r.ctx, r.root); err != nil {
		return err
	}
	r.set("bench.build_s", buildTime.Seconds(), 1)
	r.ref = newReference()

	// Set-up, several times; the last one's state and server are measured.
	var st *state
	var setupS []float64
	for i := 0; i < r.setups; i++ {
		if st != nil {
			st.srv.stop()
			os.RemoveAll(st.walDir)
			os.Remove(st.path)
		}
		r.ref.sample(refPiecesOutside)
		t0 := time.Now()
		if st, err = r.setup(i); err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		// The state file and the server's first checkpoint are set-up's
		// writes; flushing them here keeps their writeback out of the timed
		// phases. The flush is the harness's, and as slow as the shared disk
		// is that minute: it is not part of the set-up time.
		syscall.Sync()
	}
	r.logf("set-up x%d: median %.2fs; state: %d entities, %d prepopulated; %d reads/client, %d write batches x %d rows",
		len(setupS), median(setupS), st.initial, len(st.c.prepop), len(st.c.reads[0]), len(st.c.writes), r.sp.batchRows)

	// Warm-up. The same queries go to the in-process matcher the state
	// was saved from; the server must answer identically.
	overHTTP := func() target { return newHTTPTarget(st.srv.base) }
	warm := runReaders(r.ctx, []target{overHTTP()}, [][]matchOp{st.c.warmup}, nil)
	r.checkReads(st, [][]matchOp{st.c.warmup}, warm, true)
	// From here on the harness sends, records and runs the batch job; with
	// the matcher released and a collection done, its heap is small and
	// its collector mostly out of the way of the two cores being measured.
	st.m = nil
	runtime.GC()

	win, err := r.measure(st, overHTTP, st.srv, true)
	if err != nil {
		return err
	}
	recoverS, err := r.afterWrites(st, win)
	if err != nil {
		return err
	}
	// Every reference sample of the run is in; the timings can be scaled.
	scale := r.ref.scale()
	r.set("bench.slowdown", r.ref.slowdown(), len(r.ref.samples))
	r.logf("the reference task ran %.2fx slower than nominal; gated timings are divided by %.3f", r.ref.slowdown(), scale)
	r.set("setup_s", median(setupS)/scale, len(setupS))
	r.set("recover_s", median(recoverS)/scale, len(recoverS))
	r.reportPipeline(st.c, win, scale)
	r.reportServing(win, scale)
	r.scrapedMetrics(win)

	if r.trace {
		if err := r.tracedReplay(st); err != nil {
			return fmt.Errorf("traced replay: %w", err)
		}
		if err := r.layerProbes(st); err != nil {
			return fmt.Errorf("layer probes: %w", err)
		}
		r.set("bench.span_cost_ns", spanCost(), 20000)
		r.set("bench.trace_spans", float64(r.tracer.count()), 1)
		path := filepath.Join(outDir, "trace-"+r.sp.name+".jsonl")
		if err := r.tracer.writeJSONL(path); err != nil {
			return err
		}
		r.logf("wrote %d spans to %s", r.tracer.count(), path)
	}
	st.srv.stop()
	return r.ctx.Err()
}

// setup generates the inputs from the seed, builds the serving state
// in-process (pipeline over the seed dataset, then prepopulation through
// AddRecords), saves it, and starts a server on it.
func (r *run) setup(i int) (*state, error) {
	c, err := newCorpus(r.sp, r.seed)
	if err != nil {
		return nil, err
	}
	st := &state{c: c, truth: map[int]int{}, prepop: map[int]int{}}
	if st.m, err = repro.BuildMatcher(c.seed, matcherOptions()); err != nil {
		return nil, err
	}
	// The seed dataset's truth tuples get negative keys, so they can never
	// collide with the pool's.
	for t, tuple := range c.seed.Truth {
		for _, id := range tuple {
			st.truth[id] = -1 - t
		}
	}
	for lo := 0; lo < len(c.prepop); lo += prepopBatch {
		batch := c.prepop[lo:min(lo+prepopBatch, len(c.prepop))]
		rows := make([][]string, len(batch))
		for j, rec := range batch {
			rows[j] = rec.values
		}
		res, err := st.m.AddRecords(rows)
		if err != nil {
			return nil, fmt.Errorf("prepopulate: %w", err)
		}
		for j, ar := range res {
			st.truth[ar.EntityID] = batch[j].key
			st.prepop[ar.EntityID] = batch[j].key
		}
	}
	stats := st.m.Stats()
	st.initial, st.indexSize = stats.Entities, stats.IndexSize
	st.selected = st.m.Result().SelectedAttrs
	st.path = filepath.Join(r.dir, fmt.Sprintf("state-%d.bin", i))
	if err := repro.SaveMatcherFile(st.m, st.path); err != nil {
		return nil, err
	}
	st.walDir = filepath.Join(r.dir, fmt.Sprintf("wal-%d", i))
	st.args = []string{"-load-index", st.path, "-wal-dir", st.walDir,
		"-fsync", r.sp.fsync, "-snapshot-interval", "0"}
	if st.srv, err = r.start(st.args); err != nil {
		return nil, err
	}
	return st, nil
}

// cycles is how many slices the measured window is cut into. Every cycle
// runs its share of the batch job, the reads and the writes, in rounds of
// 60-200 ms, so each metric — a median over all its rounds — samples the
// whole window, and a slow second of the box falls on all of them alike.
const cycles = 25

// The reference task is timed refPiecesPerCycle times at both ends of every
// cycle (150 pieces per window), and refPiecesOutside times before every
// set-up and every crash and after the last recovery (56 pieces): always
// while the server is idle or gone.
const (
	refPiecesPerCycle = 3
	refPiecesOutside  = 8
)

// part returns the i-th of n nearly equal consecutive parts of xs.
func part[T any](xs []T, i, n int) []T {
	return xs[len(xs)*i/n : len(xs)*(i+1)/n]
}

// pipelineSample is one run of the batch job.
type pipelineSample struct {
	wall float64
	res  *repro.Result
}

// window is what one pass over the measured window produced.
type window struct {
	pipeline       []pipelineSample
	reads, writes  []round
	hits, answered int // key recall: reads answered with a prepopulated entity of the key
	acked          int // rows acknowledged
	absorbed       int // of those, rows that joined an existing tuple
	batches        int // /add requests acknowledged
	// Server counter movement summed over the read slices and over the
	// write slices, and the last scrape (gauges, quantiles since start).
	readDelta, writeDelta map[string]float64
	last                  *obs.Exposition
	walBefore             int64
	// Every round's latencies together, sorted, in ms.
	readMS, writeMS []float64
}

// measure drives the measured window through one target per client (dial
// makes them): cycles slices, each its share of the pipeline runs (when
// withPipeline), then of each client's reads, then of the write batches —
// or, in a concurrent workload, the writes with the readers looping beside
// them. Replies are checked between slices, outside anything timed. srv,
// when not nil, is scraped around every slice so the server's counters can
// be split by phase, and the replies to the writes are kept as the ones a
// later replay must reproduce.
func (r *run) measure(st *state, dial func() target, srv *serverProc, withPipeline bool) (*window, error) {
	w := &window{readDelta: map[string]float64{}, writeDelta: map[string]float64{}, last: &obs.Exposition{}}
	scrape := func() (*obs.Exposition, error) {
		if srv == nil {
			return w.last, nil
		}
		return srv.scrape()
	}
	accumulate := func(into map[string]float64, from, to *obs.Exposition) {
		for series, v := range to.Values {
			into[series] += v - from.Values[series]
		}
	}
	if srv != nil {
		var err error
		if w.walBefore, err = dirBytes(st.walDir); err != nil {
			return nil, err
		}
		st.acks = make([][]repro.AddResult, len(st.c.writes))
	}
	readers := make([]target, len(st.c.reads))
	for i := range readers {
		readers[i] = dial()
	}
	writer := dial()
	opt := matcherOptions()
	for c := 0; c < cycles; c++ {
		if withPipeline {
			for i := r.sp.pipelineRuns * c / cycles; i < r.sp.pipelineRuns*(c+1)/cycles; i++ {
				r.ops.attempt(1)
				t0 := time.Now()
				res, err := repro.Match(st.c.pipeline, opt)
				if err != nil {
					r.ops.fail("pipeline run %d: %v", i, err)
					continue
				}
				w.pipeline = append(w.pipeline, pipelineSample{time.Since(t0).Seconds(), res})
			}
		}
		readOps := make([][]matchOp, len(st.c.reads))
		for cl, ops := range st.c.reads {
			readOps[cl] = part(ops, c, cycles)
		}
		batches := part(st.c.writes, c, cycles)
		firstBatch := len(st.c.writes) * c / cycles

		if srv != nil {
			r.ref.sample(refPiecesPerCycle)
		}
		s0, err := scrape()
		if err != nil {
			return nil, err
		}
		var reads [][]opResult
		if !r.sp.concurrent {
			reads = runReaders(r.ctx, readers, readOps, nil)
		}
		s1, err := scrape()
		if err != nil {
			return nil, err
		}
		var writes []opResult
		if r.sp.concurrent {
			done, readsDone := make(chan struct{}), make(chan struct{})
			go func() {
				reads = runReaders(r.ctx, readers, readOps, done)
				close(readsDone)
			}()
			writes = runWriter(r.ctx, writer, batches)
			close(done)
			<-readsDone
		} else {
			writes = runWriter(r.ctx, writer, batches)
		}
		s2, err := scrape()
		if err != nil {
			return nil, err
		}
		if srv != nil {
			r.ref.sample(refPiecesPerCycle)
		}
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
		if r.sp.concurrent {
			// The server's counters cannot tell the reader's searches from
			// the writer's: both go to the write side (README).
			accumulate(w.writeDelta, s0, s2)
		} else {
			accumulate(w.readDelta, s0, s1)
			accumulate(w.writeDelta, s1, s2)
		}
		w.last = s2

		hits, answered := r.checkReads(st, readOps, reads, false)
		w.hits, w.answered = w.hits+hits, w.answered+answered
		acked, absorbed, ok := r.checkWrites(st, batches, firstBatch, writes, srv != nil)
		w.acked, w.absorbed, w.batches = w.acked+acked, w.absorbed+absorbed, w.batches+ok
		w.reads = append(w.reads, roundOf(reads, 1))
		w.writes = append(w.writes, roundOf([][]opResult{writes}, float64(r.sp.batchRows)))
	}
	w.readMS, w.writeMS = pooled(w.reads), pooled(w.writes)
	return w, nil
}

// pooled joins the rounds' latency samples and returns them sorted, in ms.
func pooled(rounds []round) []float64 {
	var all []time.Duration
	for _, rd := range rounds {
		all = append(all, rd.lat...)
	}
	return sortedMS(all)
}

// reportPipeline turns the window's batch-job runs into pipeline_s (the
// median run, at reference speed), the F1 pair, and the phase split of that
// run.
func (r *run) reportPipeline(c *corpus, w *window, scale float64) {
	if len(w.pipeline) == 0 {
		r.check(false, "no pipeline run succeeded")
		return
	}
	byWall := slices.Clone(w.pipeline)
	sort.Slice(byWall, func(i, j int) bool { return byWall[i].wall < byWall[j].wall })
	mid := byWall[(len(byWall)-1)/2]
	rep := repro.Evaluate(mid.res.Tuples, c.pipeline.Truth)
	for _, s := range w.pipeline {
		other := repro.Evaluate(s.res.Tuples, c.pipeline.Truth)
		r.check(other.Tuple.F1 == rep.Tuple.F1 && other.Pair.F1 == rep.Pair.F1,
			"pipeline F1 differs between two runs on the same dataset: %v vs %v", other.Tuple.F1, rep.Tuple.F1)
	}
	// Music-20 sits at tuple-F1 0.78-0.91 and pair-F1 0.91-0.96 across
	// scales and seeds at HEAD; far below that the pipeline is broken, not
	// slower.
	r.check(rep.Tuple.F1 > 0.6 && rep.Pair.F1 > 0.8, "pipeline F1 %.3f / pair-F1 %.3f below the floor", rep.Tuple.F1, rep.Pair.F1)
	n := len(w.pipeline)
	r.set("pipeline_s", mid.wall/scale, n)
	r.set("pipeline_f1", rep.Tuple.F1, len(c.pipeline.Truth))
	r.set("pipeline_pair_f1", rep.Pair.F1, len(c.pipeline.Truth))
	tm := mid.res.Timings
	r.set("multiem.select_s", tm.Select.Seconds(), n)
	r.set("multiem.represent_s", tm.Represent.Seconds(), n)
	r.set("multiem.merge_s", tm.Merge.Seconds(), n)
	r.set("multiem.prune_s", tm.Prune.Seconds(), n)
	r.logf("pipeline x%d on %d entities: median %.3fs (select %.3f represent %.3f merge %.3f prune %.3f), F1 %.4f pair-F1 %.4f",
		n, c.pipeline.NumEntities(), mid.wall, tm.Select.Seconds(), tm.Represent.Seconds(),
		tm.Merge.Seconds(), tm.Prune.Seconds(), rep.Tuple.F1, rep.Pair.F1)
}

// reportServing turns the window's read and write rounds into the client's
// metrics. Gated: the median latency over all rounds pooled, at reference
// speed. Per-layer, as the client's clock read them: the pooled p99, and the
// median round's rate, which in a closed loop with a fixed client count says
// what the median latency says.
func (r *run) reportServing(w *window, scale float64) {
	rate := func(rounds []round) float64 {
		var rates []float64
		for _, rd := range rounds {
			if len(rd.lat) > 0 { // a slice too small to hold an op measured nothing
				rates = append(rates, rd.rate)
			}
		}
		return median(rates)
	}

	rms := w.readMS
	r.set("server.match_rps", rate(w.reads), len(rms))
	r.set("match_p50_ms", percentile(rms, 50)/scale, len(rms))
	r.setPct("server.match_p99_ms", percentile(rms, tailPercentile(len(rms))), len(rms), tailPercentile(len(rms)))
	recall := 0.0
	if w.answered > 0 {
		recall = float64(w.hits) / float64(w.answered)
	}
	// Held-out corruptions of prepopulated keys come back in the top 5 for
	// ~0.95 of queries at HEAD; half that means search is broken.
	r.check(recall > 0.5, "match_key_recall %.3f below the floor", recall)
	r.set("match_key_recall", recall, w.answered)
	r.logf("reads: %d ok in %d rounds: %.0f req/s, p50 %.3f ms, p99 %.3f ms; key recall %.4f",
		len(rms), len(w.reads), r.metrics["server.match_rps"].Value, percentile(rms, 50),
		r.metrics["server.match_p99_ms"].Value, recall)

	wms := w.writeMS
	r.set("server.add_rows_per_s", rate(w.writes), w.acked)
	r.set("add_p50_ms", percentile(wms, 50)/scale, len(wms))
	r.setPct("server.add_p99_ms", percentile(wms, tailPercentile(len(wms))), len(wms), tailPercentile(len(wms)))
	r.logf("writes: %d rows in %d batches, %d rounds: %.0f rows/s, p50 %.3f ms, p99 %.3f ms; %.1f%% absorbed",
		w.acked, len(wms), len(w.writes), r.metrics["server.add_rows_per_s"].Value, percentile(wms, 50),
		r.metrics["server.add_p99_ms"].Value, 100*float64(w.absorbed)/float64(max(w.acked, 1)))
}

// recoveries is how many times the crash and restart is repeated.
const recoveries = 3

// afterWrites measures what the writes left behind — memory, disk, the
// tuples themselves — then crashes the server and times its recovery,
// recoveries times over; it returns those times.
func (r *run) afterWrites(st *state, w *window) ([]float64, error) {
	dump, err := st.srv.get("/tuples?min_members=1")
	if err != nil {
		return nil, err
	}
	entities, err := statsEntities(st.srv)
	if err != nil {
		return nil, err
	}
	r.check(entities == st.initial+w.acked, "server holds %d entities, want %d initial + %d acked", entities, st.initial, w.acked)
	rss, err := st.srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	r.set("server.peak_rss_mb", rss, 1)
	heap, err := st.srv.liveHeapMiB()
	if err != nil {
		return nil, err
	}
	r.set("heap_live_mb", heap, 1)
	walAfter, err := dirBytes(st.walDir)
	if err != nil {
		return nil, err
	}
	r.set("disk_bytes_per_row", float64(walAfter-w.walBefore)/float64(max(w.acked, 1)), w.acked)

	// Crash and recover, three times: same flags, same directory, same log
	// to replay (no snapshot is taken in between). recover_s is the median.
	var recoverS []float64
	for i := 0; i < recoveries; i++ {
		r.ref.sample(refPiecesOutside)
		st.srv.kill()
		t0 := time.Now()
		if st.srv, err = r.start(st.args); err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		recoverS = append(recoverS, time.Since(t0).Seconds())
		r.ops.attempt(1)
		recovered, err := statsEntities(st.srv)
		if err != nil {
			return nil, err
		}
		r.check(recovered >= st.initial+w.acked, "recovered server holds %d entities, fewer than %d initial + %d acked", recovered, st.initial, w.acked)
		dump2, err := st.srv.get("/tuples?min_members=1")
		if err != nil {
			return nil, err
		}
		r.check(sha256.Sum256(dump) == sha256.Sum256(dump2), "tuple dump after recovery %d differs from the dump before the kill", i)
	}
	r.ref.sample(refPiecesOutside)

	// Quality of what prepopulation and the writes built.
	pred, err := dumpTuples(dump)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	rep := repro.Evaluate(pred, truthTuples(st.truth))
	evalMS := float64(time.Since(t1)) / float64(time.Millisecond)
	// Greedy absorption at the server's M=0.5 over-merges uniform keys:
	// pair precision is 0.14-0.36 at these sizes and falls as the state
	// grows, so pair-F1 is 0.23-0.52 here (0.97 where hot keys dominate the
	// pairs) and its bound against the parent is the gate. Pair recall
	// stays at 0.85-0.90 throughout; the floor is on it, and catches a
	// matcher that stopped grouping records at all.
	r.check(rep.Pair.Recall > 0.5, "pair recall %.3f of the ingested state below the floor", rep.Pair.Recall)
	r.set("ingest_pair_f1", rep.Pair.F1, len(st.truth))
	r.set("eval.evaluate_ms", evalMS, 1)
	r.logf("after writes: %d entities, %d tuples, pair-F1 %.4f, %.1f B/row on disk, live heap %.1f MiB (peak RSS %.1f), recovered in %.2fs (of %.2f)",
		entities, len(pred), rep.Pair.F1, r.metrics["disk_bytes_per_row"].Value, heap, rss, median(recoverS), recoverS)
	return recoverS, nil
}

// checkReads verifies every reply of a read slice: 200, non-empty,
// candidates sorted by distance. lists holds each client's ops, results each
// client's replies (a client that looped has more replies than ops). It
// returns how many replies contained a prepopulated entity of the query's
// key, out of how many were well-formed. With parity set each reply must
// also equal what the in-process matcher answers for the same query.
func (r *run) checkReads(st *state, lists [][]matchOp, results [][]opResult, parity bool) (hits, answered int) {
	for c, replies := range results {
		ops := lists[c]
		for i := range replies {
			o := &replies[i]
			op := &ops[i%len(ops)]
			r.ops.attempt(1)
			if o.err == nil {
				o.err = o.decodeMatch()
			}
			switch {
			case o.err != nil:
			case len(o.cands) == 0:
				o.err = fmt.Errorf("no candidates for %q", op.rec.values)
			case !sort.SliceIsSorted(o.cands, func(a, b int) bool { return o.cands[a].Distance < o.cands[b].Distance }):
				o.err = fmt.Errorf("candidates not sorted by distance for %q", op.rec.values)
			case parity:
				if want, err := st.m.Match(op.rec.values, matchK); err != nil || !sameCandidates(o.cands, want) {
					o.err = fmt.Errorf("HTTP reply differs from in-process Match for %q (err %v)", op.rec.values, err)
				}
			}
			if o.err != nil {
				r.ops.fail("match: %v", o.err)
				continue
			}
			answered++
			if containsKey(o.cands, st.prepop, op.rec.key) {
				hits++
			}
		}
	}
	return hits, answered
}

func containsKey(cands []repro.Candidate, prepop map[int]int, key int) bool {
	for _, c := range cands {
		for _, id := range c.EntityIDs {
			if k, ok := prepop[id]; ok && k == key {
				return true
			}
		}
	}
	return false
}

// sameCandidates compares two replies field by field that the server
// serializes exactly: tuple, members, and the distance's float32 bits.
func sameCandidates(a, b []repro.Candidate) bool {
	return slices.EqualFunc(a, b, func(x, y repro.Candidate) bool {
		return x.Tuple == y.Tuple && x.Distance == y.Distance && slices.Equal(x.EntityIDs, y.EntityIDs)
	})
}

// checkWrites verifies every /add reply of a write slice (batches, starting
// at index first of the run's batch list). With record set — the normal run
// — it extends the ground truth with the entity IDs the server assigned and
// keeps the replies; otherwise — the replay — the replies must equal the
// ones kept. It returns rows acknowledged, how many of them were absorbed
// into an existing tuple, and how many batches succeeded.
func (r *run) checkWrites(st *state, batches []addOp, first int, replies []opResult, record bool) (acked, absorbed, ok int) {
	for i := range replies {
		o := &replies[i]
		batch := batches[i]
		r.ops.attempt(1)
		if o.err == nil {
			o.err = o.decodeAdd()
		}
		switch {
		case o.err != nil:
		case len(o.adds) != len(batch.recs):
			o.err = fmt.Errorf("acknowledged %d of %d rows", len(o.adds), len(batch.recs))
		case record:
			for j, ar := range o.adds {
				st.truth[ar.EntityID] = batch.recs[j].key
			}
			st.acks[first+i] = o.adds
		case st.acks[first+i] != nil && !slices.Equal(o.adds, st.acks[first+i]):
			// Same state, same batches, same order: the in-process
			// matcher must place every row where the server placed it.
			o.err = fmt.Errorf("in-process AddRecords placed batch %d differently from the server's /add", first+i)
		}
		if o.err != nil {
			r.ops.fail("add: %v", o.err)
			continue
		}
		for _, ar := range o.adds {
			if ar.Absorbed {
				absorbed++
			}
		}
		acked += len(o.adds)
		ok++
	}
	return acked, absorbed, ok
}

func statsEntities(p *serverProc) (int, error) {
	b, err := p.get("/stats")
	if err != nil {
		return 0, err
	}
	var s struct {
		Entities int `json:"entities"`
	}
	err = json.Unmarshal(b, &s)
	return s.Entities, err
}

// dumpTuples parses a /tuples NDJSON body into the member sets of the
// tuples with at least two members.
func dumpTuples(body []byte) ([][]int, error) {
	var out [][]int
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		var t struct {
			Members []int `json:"members"`
		}
		if err := json.Unmarshal(sc.Bytes(), &t); err != nil {
			return nil, fmt.Errorf("/tuples line: %w", err)
		}
		if len(t.Members) >= 2 {
			out = append(out, t.Members)
		}
	}
	return out, sc.Err()
}

// truthTuples groups entity IDs by key and keeps the groups of two or more,
// ordered so that the result does not depend on map iteration.
func truthTuples(keyOf map[int]int) [][]int {
	groups := map[int][]int{}
	for id, k := range keyOf {
		groups[k] = append(groups[k], id)
	}
	var out [][]int
	for _, g := range groups {
		if len(g) >= 2 {
			sort.Ints(g)
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// scrapedMetrics turns the server's own counters — their movement over the
// read slices and over the write slices, scraped from /metrics around each
// — into the per-layer metrics the server can supply without any change to
// it: stage-time sums and effort counts divided by the ops of the phase.
func (r *run) scrapedMetrics(w *window) {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	last := w.last

	// Match stages and search effort per request, over the read slices. In
	// a concurrent workload there are none (readDelta is empty, the
	// figures are 0) and the reader's work is inside the write side.
	rd := w.readDelta
	matches := rd[`multiem_http_requests_total{endpoint="match"}`]
	for _, stage := range []string{"embed", "fanout", "merge"} {
		sum := rd[`multiem_match_duration_seconds_stage_sum{stage="`+stage+`"}`]
		cnt := rd[`multiem_match_duration_seconds_stage_count{stage="`+stage+`"}`]
		r.set("multiem.match_"+stage+"_us", ratio(sum, cnt)*1e6, int(cnt))
	}
	searches := rd["multiem_hnsw_searches_total"]
	r.set("hnsw.match_searches_per_op", ratio(searches, matches), int(matches))
	r.set("hnsw.match_visited_per_search", ratio(rd["multiem_hnsw_nodes_visited_total"], searches), int(searches))
	r.set("hnsw.match_dist_evals_per_search", ratio(rd["multiem_hnsw_distance_evals_total"], searches), int(searches))

	// Ingest stages, search effort and WAL activity over the write slices.
	wd := w.writeDelta
	rows := float64(w.acked)
	for metric, stage := range map[string]string{
		"decide": "decide", "chain": "chain", "wal": "wal_append", "apply": "apply", "publish": "publish",
	} {
		sum := wd[`multiem_ingest_duration_seconds_stage_sum{stage="`+stage+`"}`]
		r.set("multiem.ingest_"+metric+"_us_per_row", ratio(sum, rows)*1e6, w.acked)
	}
	r.set("multiem.viewbuild_us", 1e6*ratio(wd["multiem_view_build_duration_seconds_sum"], wd["multiem_view_build_duration_seconds_count"]), w.batches)
	wsearches := wd["multiem_hnsw_searches_total"]
	r.set("hnsw.ingest_searches_per_row", ratio(wsearches, rows), w.acked)
	r.set("hnsw.ingest_visited_per_search", ratio(wd["multiem_hnsw_nodes_visited_total"], wsearches), int(wsearches))
	r.set("hnsw.ingest_dist_evals_per_search", ratio(wd["multiem_hnsw_distance_evals_total"], wsearches), int(wsearches))
	r.set("wal.bytes_per_row", ratio(wd["multiem_wal_bytes"], rows), w.acked)
	r.set("multiem.absorb_ratio", ratio(float64(w.absorbed), rows), w.acked)

	// Structure health and process state after the writes.
	var compactions, stale, entries float64
	for s := 0; s < shards; s++ {
		label := fmt.Sprintf(`{shard="%d"}`, s)
		compactions += last.Value("multiem_shard_compactions_total" + label)
		stale += last.Value("multiem_shard_stale_entries" + label)
		entries += last.Value("multiem_shard_index_entries" + label)
	}
	r.set("multiem.compactions", compactions, 1)
	r.set("multiem.stale_ratio", ratio(stale, entries), int(entries))
	r.set("server.goroutines", last.Value("multiem_go_goroutines"), 1)

	// What lies between the client's clock and the matcher's: the handler
	// sees less than the client (HTTP, loopback, scheduling), the matcher's
	// own span less than the handler (JSON in, JSON out). The server's
	// quantiles are over everything since it started, the client's medians
	// over the measured reads and writes.
	handlerMatch := last.Value(`multiem_http_request_duration_seconds{endpoint="match",quantile="0.5"}`)
	handlerAdd := last.Value(`multiem_http_request_duration_seconds{endpoint="add",quantile="0.5"}`)
	rms, wms := w.readMS, w.writeMS
	r.set("server.match_handler_p50_us", handlerMatch*1e6, int(last.Value(`multiem_http_request_duration_seconds_count{endpoint="match"}`)))
	r.set("server.add_handler_p50_us", handlerAdd*1e6, int(last.Value(`multiem_http_request_duration_seconds_count{endpoint="add"}`)))
	r.set("server.http_overhead_ms", percentile(rms, 50)-handlerMatch*1e3, len(rms))
	r.set("server.http_overhead_add_ms", percentile(wms, 50)-handlerAdd*1e3, len(wms))
	r.set("server.handler_overhead_us", (handlerMatch-last.Value(`multiem_match_duration_seconds{quantile="0.5"}`))*1e6, len(rms))
}
