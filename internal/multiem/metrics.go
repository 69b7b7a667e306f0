package multiem

import (
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hist"
	"repro/internal/obs"
)

// Stage indexes (and their exported names, used by the serving layer to
// register per-stage latency series) for the two instrumented pipelines.
// Match: embed the record, fan the query out across the per-shard HNSW
// indexes (each shard's search + batch re-rank runs inside the fan-out),
// then merge the per-shard rankings and materialize candidates.
// Ingest (one batch): decide (parallel embed + search + absorption scoring
// against a snapshot of the shards), then the WAL append (the record holds
// the decisions as decide left them),
// intra-batch chaining, the per-shard copy-on-write apply, and the epoch
// publish (view builds of the touched shards + commit swap).
const (
	MatchStageEmbed = iota
	MatchStageFanout
	MatchStageMerge
)

const (
	IngestStageDecide = iota
	IngestStageWAL
	IngestStageChain
	IngestStageApply
	IngestStagePublish
)

// MatchStageNames and IngestStageNames are ordered by the stage indexes
// above.
var (
	MatchStageNames  = []string{"embed", "fanout", "merge"}
	IngestStageNames = []string{"decide", "wal_append", "chain", "apply", "publish"}
)

// slowLogDefaults is the package-level slow-request logging config new
// matchers adopt at instrumentation setup. The serving layer sets it once
// at startup (before building any matcher), so matchers created later —
// recovery, follower bootstrap, promotion — inherit it too.
var slowLogDefaults struct {
	mu          sync.Mutex
	logger      *slog.Logger
	matchThr    time.Duration
	ingestThr   time.Duration
	sampleEvery int
}

// SetSlowLog configures slow-request logging for matchers created after
// the call: Match spans at or above matchThr and ingest batches at or
// above ingestThr log their full stage breakdown to l at Warn level,
// sampled one in every sampleEvery (<= 1 logs all). A nil logger or
// non-positive threshold disables the respective log.
func SetSlowLog(l *slog.Logger, matchThr, ingestThr time.Duration, sampleEvery int) {
	d := &slowLogDefaults
	d.mu.Lock()
	defer d.mu.Unlock()
	d.logger, d.matchThr, d.ingestThr, d.sampleEvery = l, matchThr, ingestThr, sampleEvery
}

// matcherObs is a matcher's instrumentation state: stage sets for the two
// pipelines plus ingest volume counters and the per-shard view-build
// (commit cost) histogram. Created lazily on first use so every
// constructor path (build, load, recover, replicate) gets one without
// carrying setup code.
type matcherObs struct {
	match     *obs.Stages
	ingest    *obs.Stages
	batches   atomic.Int64
	rows      atomic.Int64
	viewBuild hist.Histogram
}

func (m *Matcher) obs() *matcherObs {
	m.obsOnce.Do(func() {
		ins := &matcherObs{
			match:  obs.NewStages("match", MatchStageNames...),
			ingest: obs.NewStages("ingest", IngestStageNames...),
		}
		d := &slowLogDefaults
		d.mu.Lock()
		ins.match.SetSlowLog(d.logger, d.matchThr, d.sampleEvery)
		ins.ingest.SetSlowLog(d.logger, d.ingestThr, d.sampleEvery)
		d.mu.Unlock()
		m.obsIns = ins
	})
	return m.obsIns
}

// MatchStages exposes the Match pipeline's stage latency set.
func (m *Matcher) MatchStages() *obs.Stages { return m.obs().match }

// IngestStages exposes the ingest pipeline's stage latency set.
func (m *Matcher) IngestStages() *obs.Stages { return m.obs().ingest }

// IngestTotals reports batches and rows ingested through AddRecords and
// replication since this matcher instance was constructed (recovery
// replay is excluded — it re-applies already-counted work).
func (m *Matcher) IngestTotals() (batches, rows int64) {
	ins := m.obs()
	return ins.batches.Load(), ins.rows.Load()
}

// ViewBuildDurations freezes the distribution of per-shard copy-on-write
// view builds — chunk-spine snapshots, O(chunks) each; the batch pays for
// the chunks it dirties in apply — taken in the publish stage. One
// observation per touched shard per batch.
func (m *Matcher) ViewBuildDurations() *hist.Snapshot {
	return m.obs().viewBuild.Snapshot()
}

// EpochAge is the time since the last epoch publish (commit or initial
// view install); zero when nothing was ever published.
func (m *Matcher) EpochAge() time.Duration {
	ns := m.lastPublish.Load()
	if ns == 0 {
		return 0
	}
	return time.Duration(time.Now().UnixNano() - ns)
}

// SearchStats aggregates the per-shard HNSW indexes' search-effort
// counters (queries, nodes visited, distance evaluations) over the
// current serving view. Clones share counters with the writer-side
// index, so Match fan-out, ingest snapshot searches, and warmup probes
// all land here.
func (m *Matcher) SearchStats() (searches, visited, distEvals uint64) {
	v := m.state.Load()
	if v == nil {
		return 0, 0, 0
	}
	for _, sv := range v.shards {
		s, vis, ev := sv.index.SearchStats()
		searches += s
		visited += vis
		distEvals += ev
	}
	return searches, visited, distEvals
}
