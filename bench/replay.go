package main

import (
	"path/filepath"
	"runtime"
	"time"

	"repro"
)

// tracedReplay sends the workload's exact op sequence — same generator,
// same order, same client count — through direct calls into the matcher
// instead of HTTP, with a bench-side span around every call. What the
// normal run measured at the client minus what these spans measure is the
// cost of the layers in between. End-to-end metrics are never taken here.
func (r *run) tracedReplay(st *state) error {
	tr := newTracer()
	r.tracer = tr
	opt := matcherOptions()
	cfg := repro.WALConfig{Dir: filepath.Join(r.dir, "replay-wal"), Fsync: r.sp.fsync}
	load := func() (*repro.Matcher, error) { return repro.LoadMatcherFile(st.path, opt) }

	// The state as the server got it: loaded from the file, WAL attached.
	var m *repro.Matcher
	var err error
	tr.span(0, "multiem", "LoadMatcherFile", func() { m, err = load() })
	if err != nil {
		return err
	}
	tr.span(0, "multiem", "Save", func() { err = repro.SaveMatcherFile(m, filepath.Join(r.dir, "replay-save.bin")) })
	if err != nil {
		return err
	}
	if m, err = repro.RecoverMatcher(cfg, opt, func() (*repro.Matcher, error) { return m, nil }); err != nil {
		return err
	}
	// Same slices in the same order as the normal run, so every read sees
	// the state its HTTP twin saw; the checks between slices compare the
	// replies with the server's.
	win, err := r.measure(st, func() target { return &directTarget{m: m, tr: tr} }, nil, false)
	if err != nil {
		return err
	}
	rows := win.acked
	if err := m.CloseWAL(); err != nil {
		return err
	}

	// Recovery: load the file again and replay the log just written.
	var rec *repro.Matcher
	tr.span(0, "multiem", "RecoverMatcher", func() { rec, err = repro.RecoverMatcher(cfg, opt, load) })
	if err != nil {
		return err
	}
	r.check(rec.Stats().Entities == st.initial+rows, "in-process recovery holds %d entities, want %d", rec.Stats().Entities, st.initial+rows)
	if err := rec.CloseWAL(); err != nil {
		return err
	}

	us := func(layer, name string) (float64, int) {
		d := tr.durations(layer, name)
		return median(d) / 1e3, len(d)
	}
	v, n := us("multiem", "Match")
	r.set("multiem.match_us", v, n)
	perRow := tr.durations("multiem", "AddRecords")
	for i := range perRow {
		perRow[i] /= 1e3 * float64(r.sp.batchRows)
	}
	r.set("multiem.add_us_per_row", median(perRow), len(perRow))
	v, _ = us("multiem", "LoadMatcherFile")
	r.set("multiem.load_s", v/1e6, 1)
	v, _ = us("multiem", "Save")
	r.set("multiem.save_s", v/1e6, 1)
	v, _ = us("multiem", "RecoverMatcher")
	r.set("multiem.recover_rows_per_s", float64(rows)/(v/1e6), rows)
	r.logf("replay: Match p50 %.1f us, AddRecords %.1f us/row, load %.2fs, save %.2fs, recover %.0f rows/s",
		r.metrics["multiem.match_us"].Value, r.metrics["multiem.add_us_per_row"].Value,
		r.metrics["multiem.load_s"].Value, r.metrics["multiem.save_s"].Value, r.metrics["multiem.recover_rows_per_s"].Value)

	// One parallel pipeline run and what a sequential one allocates; both
	// too noisy or too indirect to gate on, recorded for attribution.
	par := opt
	par.Parallel = true
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if _, err := repro.Match(st.c.pipeline, opt); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	r.set("multiem.pipeline_alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), 1)
	t0 := time.Now()
	tr.span(0, "multiem", "Match(parallel)", func() { _, err = repro.Match(st.c.pipeline, par) })
	if err != nil {
		return err
	}
	r.set("multiem.pipeline_par_s", time.Since(t0).Seconds(), 1)
	return nil
}
