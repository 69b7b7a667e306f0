package main

import (
	"runtime"
	"strconv"
	"time"

	"repro"
	"repro/internal/hist"
	"repro/internal/multiem"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/vector"
)

// registerMetrics wires the full /metrics catalogue onto the server's
// registry. Everything that depends on the matcher binds late through
// s.currentMatcher(): in follower role the serving matcher is swapped
// wholesale on resync and again on promotion, so holding a matcher
// pointer at registration time would scrape a dead instance. The
// callbacks run only at scrape time, so their cost (a stats walk over
// the current epoch view) is off every request path.
//
// The HTTP endpoint series live in newServer, next to the handles the
// instrument wrapper records into; docs/OPERATIONS.md carries the
// operator-facing catalogue and must be updated in step with this file.
func (s *server) registerMetrics() {
	r := s.reg

	// Process-level.
	r.GaugeFunc("multiem_uptime_seconds",
		"Wall time since the process built its HTTP state.", nil,
		func() float64 { return time.Since(s.start).Seconds() })
	r.GaugeFunc("multiem_go_goroutines",
		"Live goroutines.", nil,
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("multiem_go_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).", nil,
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	r.GaugeFunc("multiem_kernels_info",
		"Always 1; the kernels label names the active distance-kernel implementation.",
		obs.L("kernels", vector.Kernels()), func() float64 { return 1 })

	// matcher resolves the serving matcher at scrape time; gfn guards the
	// pre-recovery window (and a follower mid-bootstrap) where there is
	// none yet: series exist from process start but read 0.
	matcher := s.currentMatcher
	gfn := func(f func(m *repro.Matcher) float64) func() float64 {
		return func() float64 {
			m := matcher()
			if m == nil {
				return 0
			}
			return f(m)
		}
	}

	// Matcher state (current epoch view).
	r.GaugeFunc("multiem_entities",
		"Records known to the matcher.", nil,
		gfn(func(m *repro.Matcher) float64 { return float64(m.Stats().Entities) }))
	r.GaugeFunc("multiem_tuples",
		"Tracked tuples, singletons included.", nil,
		gfn(func(m *repro.Matcher) float64 { return float64(m.Stats().Tuples) }))
	r.GaugeFunc("multiem_matched_tuples",
		"Tuples with >= 2 members.", nil,
		gfn(func(m *repro.Matcher) float64 { return float64(m.Stats().Matched) }))
	r.GaugeFunc("multiem_shards",
		"Hash shards the matcher state is split across.", nil,
		gfn(func(m *repro.Matcher) float64 { return float64(m.Shards()) }))
	r.GaugeFunc("multiem_epoch",
		"View epoch: ingest batches committed since the matcher was installed.", nil,
		gfn(func(m *repro.Matcher) float64 { return float64(m.Epoch()) }))
	r.GaugeFunc("multiem_epoch_age_seconds",
		"Time since the last epoch publish (how stale the serving view is).", nil,
		gfn(func(m *repro.Matcher) float64 { return m.EpochAge().Seconds() }))
	r.CounterFunc("multiem_ingest_batches_total",
		"Ingest batches committed (recovery replay excluded).", nil,
		gfn(func(m *repro.Matcher) float64 { b, _ := m.IngestTotals(); return float64(b) }))
	r.CounterFunc("multiem_ingest_rows_total",
		"Rows committed through ingest batches (recovery replay excluded).", nil,
		gfn(func(m *repro.Matcher) float64 { _, rows := m.IngestTotals(); return float64(rows) }))

	// Per-shard breakdown: the sample set is rebuilt each scrape from one
	// pinned epoch view, so a hot or bloated shard is visible without a
	// debugger and the samples are mutually consistent.
	shardSamples := func(f func(ss repro.ShardStats) float64) func() []obs.Sample {
		return func() []obs.Sample {
			m := matcher()
			if m == nil {
				return nil
			}
			_, perShard, _ := m.StatsWithShards()
			out := make([]obs.Sample, len(perShard))
			for i, ss := range perShard {
				out[i] = obs.Sample{
					Labels: obs.L("shard", strconv.Itoa(ss.Shard)),
					Value:  f(ss),
				}
			}
			return out
		}
	}
	r.GaugeSetFunc("multiem_shard_live_tuples",
		"Current tuples homed on the shard.",
		shardSamples(func(ss repro.ShardStats) float64 { return float64(ss.Live) }))
	r.GaugeSetFunc("multiem_shard_index_entries",
		"Centroid vectors in the shard's ANN index, stale entries included.",
		shardSamples(func(ss repro.ShardStats) float64 { return float64(ss.IndexSize) }))
	r.GaugeSetFunc("multiem_shard_stale_entries",
		"Stale ANN entries left behind by absorptions (compaction debt).",
		shardSamples(func(ss repro.ShardStats) float64 { return float64(ss.IndexSize - ss.Live) }))
	r.CounterSetFunc("multiem_shard_compactions_total",
		"Stale-centroid index rebuilds on the shard.",
		shardSamples(func(ss repro.ShardStats) float64 { return float64(ss.Compactions) }))

	// Pipeline stage latency. Total and per-stage series come from the
	// same spans, so the stage summaries decompose the totals.
	stageSummaries := func(name, help string, names []string,
		total func(m *repro.Matcher) *obs.Stages) {
		r.SummaryFunc(name, help+" (all stages).", nil, func() *hist.Snapshot {
			m := matcher()
			if m == nil {
				return nil
			}
			return total(m).TotalSnapshot()
		})
		for i, stage := range names {
			i := i
			r.SummaryFunc(name+"_stage", help+", by stage.", obs.L("stage", stage),
				func() *hist.Snapshot {
					m := matcher()
					if m == nil {
						return nil
					}
					return total(m).StageSnapshot(i)
				})
		}
	}
	stageSummaries("multiem_match_duration_seconds",
		"Match request latency", multiem.MatchStageNames,
		func(m *repro.Matcher) *obs.Stages { return m.MatchStages() })
	stageSummaries("multiem_ingest_duration_seconds",
		"Ingest batch latency", multiem.IngestStageNames,
		func(m *repro.Matcher) *obs.Stages { return m.IngestStages() })
	r.SummaryFunc("multiem_view_build_duration_seconds",
		"Per-shard copy-on-write view build during commit (one observation per touched shard per batch).",
		nil, func() *hist.Snapshot {
			m := matcher()
			if m == nil {
				return nil
			}
			return m.ViewBuildDurations()
		})
	slowCounter := func(st func(m *repro.Matcher) *obs.Stages) func() float64 {
		return gfn(func(m *repro.Matcher) float64 { return float64(st(m).SlowLogged()) })
	}
	r.CounterFunc("multiem_slow_requests_total",
		"Slow-request span breakdowns logged.", obs.L("op", "match"),
		slowCounter(func(m *repro.Matcher) *obs.Stages { return m.MatchStages() }))
	r.CounterFunc("multiem_slow_requests_total",
		"Slow-request span breakdowns logged.", obs.L("op", "ingest"),
		slowCounter(func(m *repro.Matcher) *obs.Stages { return m.IngestStages() }))

	// ANN search effort, summed over the per-shard HNSW indexes. The
	// ratios visited/searches and evals/searches are the per-query effort
	// the paper's index tuning trades against recall.
	r.CounterFunc("multiem_hnsw_searches_total",
		"HNSW queries answered (match fan-out, ingest scoring, warmup probes).", nil,
		gfn(func(m *repro.Matcher) float64 { s, _, _ := m.SearchStats(); return float64(s) }))
	r.CounterFunc("multiem_hnsw_nodes_visited_total",
		"Graph nodes expanded across HNSW queries.", nil,
		gfn(func(m *repro.Matcher) float64 { _, v, _ := m.SearchStats(); return float64(v) }))
	r.CounterFunc("multiem_hnsw_distance_evals_total",
		"Distance evaluations across HNSW queries.", nil,
		gfn(func(m *repro.Matcher) float64 { _, _, e := m.SearchStats(); return float64(e) }))

	// Durability (zero when the matcher runs without -wal-dir).
	walGauge := func(f func(ws repro.WALStats) float64) func() float64 {
		return gfn(func(m *repro.Matcher) float64 { return f(m.WALStats()) })
	}
	r.GaugeFunc("multiem_wal_enabled",
		"1 when the matcher appends to a write-ahead log.", nil,
		walGauge(func(ws repro.WALStats) float64 {
			if ws.Enabled {
				return 1
			}
			return 0
		}))
	r.GaugeFunc("multiem_wal_segments",
		"Live WAL segment files.", nil,
		walGauge(func(ws repro.WALStats) float64 { return float64(ws.Segments) }))
	r.GaugeFunc("multiem_wal_bytes",
		"Live WAL bytes.", nil,
		walGauge(func(ws repro.WALStats) float64 { return float64(ws.Bytes) }))
	r.GaugeFunc("multiem_wal_next_seq",
		"Sequence number the next ingest batch will be logged as.", nil,
		walGauge(func(ws repro.WALStats) float64 { return float64(ws.NextSeq) }))
	r.GaugeFunc("multiem_wal_snapshot_seq",
		"Sequence the latest checkpoint covers; recovery replays from here.", nil,
		walGauge(func(ws repro.WALStats) float64 { return float64(ws.SnapshotSeq) }))
	r.CounterFunc("multiem_wal_appends_total",
		"WAL records appended since open.", nil,
		walGauge(func(ws repro.WALStats) float64 { return float64(ws.Appends) }))
	r.CounterFunc("multiem_wal_syncs_total",
		"fsync calls since open.", nil,
		walGauge(func(ws repro.WALStats) float64 { return float64(ws.Syncs) }))
	r.CounterFunc("multiem_wal_torn_truncations_total",
		"Torn-tail truncations performed when reopening the log.", nil,
		walGauge(func(ws repro.WALStats) float64 { return float64(ws.TornTruncations) }))
	r.CounterFunc("multiem_wal_snapshots_total",
		"Checkpoints taken since open.", nil,
		walGauge(func(ws repro.WALStats) float64 { return float64(ws.Snapshots) }))
	r.CounterFunc("multiem_wal_snapshot_errors_total",
		"Background checkpoints that failed.", nil,
		walGauge(func(ws repro.WALStats) float64 { return float64(ws.SnapshotErrors) }))
	r.GaugeFunc("multiem_recovery_load_seconds",
		"Time reading and decoding the state file this process started from (newest snapshot or -load-index); a restart is this plus the replay.", nil,
		walGauge(func(ws repro.WALStats) float64 { return ws.LoadSeconds }))
	r.GaugeFunc("multiem_recovery_load_bytes",
		"Size of that state file; over load seconds is the load rate.", nil,
		walGauge(func(ws repro.WALStats) float64 { return float64(ws.LoadBytes) }))
	r.GaugeFunc("multiem_recovery_replayed_rows",
		"Rows replayed from the WAL: at recovery, or summed over a follower's rounds.", nil,
		walGauge(func(ws repro.WALStats) float64 { return float64(ws.ReplayedRows) }))
	r.GaugeFunc("multiem_recovery_replay_seconds",
		"Time that replay took; rows over seconds is what a snapshot interval is sized from.", nil,
		walGauge(func(ws repro.WALStats) float64 { return ws.ReplaySeconds }))
	r.GaugeFunc("multiem_recovery_reader_busy_seconds",
		"Replay time the log reader spent decoding, embedding and chaining rather than waiting for the shard streams.", nil,
		walGauge(func(ws repro.WALStats) float64 { return ws.ReplayReaderBusySeconds }))
	r.GaugeSetFunc("multiem_recovery_shard_busy_seconds",
		"Replay time the shard's apply stream spent checking and applying rather than waiting for the reader.",
		func() []obs.Sample {
			m := matcher()
			if m == nil {
				return nil
			}
			busy := m.WALStats().ReplayShardBusySeconds
			out := make([]obs.Sample, len(busy))
			for s, v := range busy {
				out[s] = obs.Sample{Labels: obs.L("shard", strconv.Itoa(s)), Value: v}
			}
			return out
		})
	r.GaugeFunc("multiem_recovery_skipped_links",
		"Index nodes replay appended without linking because a compaction later in the log discarded them; 0 when the log crossed no compaction.", nil,
		walGauge(func(ws repro.WALStats) float64 { return float64(ws.ReplaySkippedLinks) }))
	r.SummaryFunc("multiem_wal_sync_duration_seconds",
		"WAL fsync latency.", nil, func() *hist.Snapshot {
			m := matcher()
			if m == nil {
				return nil
			}
			return m.WALSyncDurations()
		})

	// Replication. Role and term resolve by which handles exist, so the
	// same series tracks a node across follower -> primary promotion —
	// the failover smoke asserts term >= 2 here on the promoted node.
	r.GaugeFunc("multiem_repl_role",
		"Replication role: 0 standalone, 1 primary, 2 follower.", nil,
		func() float64 {
			if f := s.follower.Load(); f != nil && !f.Promoted() {
				return 2
			}
			if s.primary.Load() != nil {
				return 1
			}
			return 0
		})
	r.GaugeFunc("multiem_repl_term",
		"Fencing term: the feed's term on a primary, the highest acknowledged term on a follower.", nil,
		func() float64 {
			if p := s.primary.Load(); p != nil {
				return float64(p.Term())
			}
			if f := s.follower.Load(); f != nil {
				return float64(f.Term())
			}
			return 0
		})
	followerGauge := func(f func(st repl.Stats) float64) func() float64 {
		return func() float64 {
			fo := s.follower.Load()
			if fo == nil || fo.Promoted() {
				return 0
			}
			return f(fo.Stats())
		}
	}
	r.GaugeFunc("multiem_repl_lag_batches",
		"Batches the primary has committed that this follower has not applied.", nil,
		followerGauge(func(st repl.Stats) float64 { return float64(st.LagBatches) }))
	r.GaugeFunc("multiem_repl_lag_bytes",
		"Segment bytes the primary holds that the mirror does not.", nil,
		followerGauge(func(st repl.Stats) float64 { return float64(st.LagBytes) }))
	r.GaugeFunc("multiem_repl_since_contact_seconds",
		"Time since the last successful manifest fetch; -1 before the first.", nil,
		followerGauge(func(st repl.Stats) float64 {
			if st.SinceContactMs < 0 {
				return -1
			}
			return float64(st.SinceContactMs) / 1000
		}))
	r.CounterFunc("multiem_repl_bytes_fetched_total",
		"Bytes mirrored from the primary (snapshots included).", nil,
		followerGauge(func(st repl.Stats) float64 { return float64(st.BytesFetched) }))
	r.CounterFunc("multiem_repl_fetch_errors_total",
		"Failed fetch rounds.", nil,
		followerGauge(func(st repl.Stats) float64 { return float64(st.FetchErrors) }))
	r.CounterFunc("multiem_repl_resyncs_total",
		"Full re-bootstraps from a primary snapshot.", nil,
		followerGauge(func(st repl.Stats) float64 { return float64(st.Resyncs) }))
}
