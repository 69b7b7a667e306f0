package main

import (
	"fmt"
	"math"
)

// spec is one workload: the same life cycle every deployment goes through
// (batch build, serve reads, serve writes, crash, recover) with the weight
// on a different phase. Every workload runs every phase, so every
// end-to-end metric is measured on every workload; the phase a workload
// does not stress runs at the floor size: 5000 reads and 1000 write
// batches, 200 and 40 per round, and pooled enough for a p99 with ten
// samples beyond it.
type spec struct {
	name string
	why  string

	// Batch job: repro.Match over Music-20 at pipelineScale, sequential,
	// pipelineRuns times spread over the measured window.
	pipelineScale float64
	pipelineRuns  int

	// Serving state: BuildMatcher over Music-20 at seedScale, then prepop
	// rows ingested in-process before the state is saved for the server.
	prepop int

	// Reads: readClients closed-loop connections, readsPerClient POST
	// /match each (k=5), a fifth of them per cycle.
	readClients    int
	readsPerClient int

	// Writes: one closed-loop connection, writeBatches POST /add of
	// batchRows rows each, a fifth of them per cycle after the reads.
	writeBatches int
	batchRows    int

	// skew is the Zipf s parameter of the key draw for reads and writes;
	// 0 draws keys uniformly and writes each row once.
	skew float64
	// fsync is the server's -fsync policy.
	fsync string
	// concurrent runs the readers beside the writer instead of before it:
	// in every cycle they loop until the writer has sent its share, and
	// readsPerClient is ignored.
	concurrent bool
}

// Shared sizes. The server defaults (M=0.5, encoder dim 256, default HNSW)
// apply throughout; Shards is fixed so the state does not depend on the
// core count of the box that generated it.
const (
	seedScale    = 0.1 // Music-20 scale of the state's pipeline-built seed
	shards       = 2
	matchK       = 5
	prepopBatch  = 2048
	paritySample = 500 // warm-up queries also compared with in-process Match
	zipfV        = 8   // Zipf offset: flattens the head so no key takes >5% of draws
)

// baseSeconds is the --seconds value the op counts below are written for;
// other values scale them linearly.
const baseSeconds = 10

var specs = []spec{
	{
		name:          "pipeline_music",
		why:           "The paper's own batch job carries the run (Music-20 at 0.2, sequential, merge ~92%): a kernel, HNSW-build or merge change moves pipeline_s here; an online-path change must not.",
		pipelineScale: 0.2, pipelineRuns: 8,
		prepop:      5000,
		readClients: 2, readsPerClient: 2500,
		writeBatches: 1000, batchRows: 6,
		fsync: "off",
	},
	{
		name:          "serve_read",
		why:           "Read path at full weight: 2 closed-loop clients, uniform held-out queries over the largest state; WAL, ingest and COW publish idle while reads run, so a write-path change must not move match_*.",
		pipelineScale: seedScale, pipelineRuns: 12,
		prepop:      10000,
		readClients: 2, readsPerClient: 7000,
		writeBatches: 1000, batchRows: 6,
		fsync: "off",
	},
	{
		name:          "serve_ingest",
		why:           "Write path at full weight: one writer, 16-row uniform-key batches that triple the live state; the kill and restart replays the whole log, so recovery is measured beside append.",
		pipelineScale: seedScale, pipelineRuns: 12,
		prepop:      5000,
		readClients: 2, readsPerClient: 2500,
		writeBatches: 1000, batchRows: 16,
		fsync: "off",
	},
	{
		name:          "serve_mixed",
		why:           "Reads beside writes on the same hot tuples (Zipf 1.2, 12-row batches, fsync interval): publish, COW, stale centroids and compaction show in the reader's tail, reader CPU in the writer's latency.",
		pipelineScale: seedScale, pipelineRuns: 12,
		prepop:       5000,
		readClients:  1,
		writeBatches: 1000, batchRows: 12,
		skew: 1.2, fsync: "interval", concurrent: true,
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns the spec with its op counts multiplied by ops and its
// prepopulated state by state. --seconds scales the ops alone, so the state
// the workload is about stays what it is; the smoke run shrinks both. Batch
// size, key skew and policies never change.
func (s spec) scaled(ops, state float64) spec {
	n := func(v int, f float64) int {
		if v == 0 {
			return 0
		}
		return int(math.Max(1, math.Round(float64(v)*f)))
	}
	s.pipelineRuns = n(s.pipelineRuns, ops)
	s.prepop = n(s.prepop, state)
	s.readsPerClient = n(s.readsPerClient, ops)
	s.writeBatches = n(s.writeBatches, ops)
	return s
}

// metricDef names one metric and its unit. The two lists below are the
// benchmark's vocabulary and must equal BENCHMARK.json (spec_test.go checks).
type metricDef struct {
	name string
	unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_live_mb", "MiB"},
	{"pipeline_s", "s"},
	{"pipeline_f1", "ratio"},
	{"pipeline_pair_f1", "ratio"},
	{"match_p50_ms", "ms"},
	{"match_key_recall", "ratio"},
	{"add_p50_ms", "ms"},
	{"ingest_pair_f1", "ratio"},
	{"disk_bytes_per_row", "B/row"},
	{"recover_s", "s"},
}

var perLayer = []metricDef{
	// Scraped from the server's /metrics before and after a phase.
	{"server.http_overhead_ms", "ms"},
	{"server.http_overhead_add_ms", "ms"},
	{"server.match_handler_p50_us", "us"},
	{"server.add_handler_p50_us", "us"},
	{"server.handler_overhead_us", "us"},
	{"server.peak_rss_mb", "MiB"},
	{"server.match_rps", "req/s"},
	{"server.match_p99_ms", "ms"},
	{"server.add_rows_per_s", "rows/s"},
	{"server.add_p99_ms", "ms"},
	{"server.goroutines", "count"},
	{"multiem.match_embed_us", "us"},
	{"multiem.match_fanout_us", "us"},
	{"multiem.match_merge_us", "us"},
	{"multiem.ingest_decide_us_per_row", "us/row"},
	{"multiem.ingest_chain_us_per_row", "us/row"},
	{"multiem.ingest_wal_us_per_row", "us/row"},
	{"multiem.ingest_apply_us_per_row", "us/row"},
	{"multiem.ingest_publish_us_per_row", "us/row"},
	{"multiem.viewbuild_us", "us"},
	{"multiem.compactions", "count"},
	{"multiem.stale_ratio", "ratio"},
	{"multiem.absorb_ratio", "ratio"},
	{"hnsw.match_searches_per_op", "count"},
	{"hnsw.match_visited_per_search", "count"},
	{"hnsw.match_dist_evals_per_search", "count"},
	{"hnsw.ingest_searches_per_row", "count"},
	{"hnsw.ingest_visited_per_search", "count"},
	{"hnsw.ingest_dist_evals_per_search", "count"},
	{"wal.bytes_per_row", "B/row"},
	// Result.Timings of the median pipeline run.
	{"multiem.select_s", "s"},
	{"multiem.represent_s", "s"},
	{"multiem.merge_s", "s"},
	{"multiem.prune_s", "s"},
	// Traced in-process replay and layer probes (bench-side spans).
	{"multiem.pipeline_par_s", "s"},
	{"multiem.pipeline_alloc_mb", "MiB"},
	{"multiem.match_us", "us"},
	{"multiem.add_us_per_row", "us/row"},
	{"multiem.load_s", "s"},
	{"multiem.save_s", "s"},
	{"multiem.recover_rows_per_s", "rows/s"},
	{"datagen.generate_s", "s"},
	{"eval.evaluate_ms", "ms"},
	{"table.serialize_ns", "ns"},
	{"embed.encode_us", "us"},
	{"vector.dot_batch_ns_per_row", "ns/row"},
	{"vector.dot_gather_ns_per_row", "ns/row"},
	{"hnsw.add_us", "us"},
	{"hnsw.search_us", "us"},
	{"hnsw.clone_us", "us"},
	{"hnsw.save_mb_per_s", "MiB/s"},
	{"hnsw.load_mb_per_s", "MiB/s"},
	{"wal.append_us", "us"},
	{"wal.sync_us", "us"},
	{"wal.replay_mb_per_s", "MiB/s"},
	{"wal.appends_per_batch", "count"},
	{"wal.syncs_per_batch", "count"},
	{"wal.fsync_p50_us", "us"},
	{"multiem.add_always_us_per_row", "us/row"},
	{"bench.build_s", "s"},
	{"bench.slowdown", "ratio"},
	{"bench.span_cost_ns", "ns"},
	{"bench.trace_spans", "count"},
}
