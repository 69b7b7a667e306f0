package obs

import (
	"context"
	"log/slog"
	"sync/atomic"
	"time"

	"repro/internal/hist"
)

// MaxStages bounds the number of stages in one Stages set, so a Span can
// hold its per-stage durations in a fixed array and stay allocation-free
// on the hot path.
const MaxStages = 8

// Stages is a named pipeline with a fixed stage list. Each operation
// opens a Span, marks stage boundaries as it passes them, and Ends; the
// set accumulates a total-duration histogram plus one histogram per
// stage, and can emit sampled, threshold-gated slow-request logs with
// the full stage breakdown via log/slog.
//
// The clock is injectable for tests (SetClock); everything else is
// atomics, so concurrent spans and scrapes need no locks.
type Stages struct {
	name   string
	stages []string
	now    func() time.Time

	total hist.Histogram
	hists []*hist.Histogram

	slowNS     atomic.Int64 // threshold; <= 0 disables slow logging
	slowEvery  atomic.Int64 // log 1 of every N slow spans; <= 1 logs all
	slowSeen   atomic.Int64
	slowLogged atomic.Int64
	logger     atomic.Pointer[slog.Logger]
}

// NewStages creates a stage set. Panics if more than MaxStages stages
// are named (programmer error, like metric registration).
func NewStages(name string, stages ...string) *Stages {
	if len(stages) > MaxStages {
		panic("obs: too many stages for " + name)
	}
	s := &Stages{name: name, stages: stages, now: time.Now}
	s.hists = make([]*hist.Histogram, len(stages))
	for i := range s.hists {
		s.hists[i] = &hist.Histogram{}
	}
	return s
}

// Name returns the operation name.
func (s *Stages) Name() string { return s.name }

// SetClock replaces the time source (tests only; not concurrency-safe
// with in-flight spans).
func (s *Stages) SetClock(now func() time.Time) { s.now = now }

// SetSlowLog configures slow-span logging: spans whose total duration
// reaches threshold are logged to l at Warn level, sampled one in every
// sampleEvery (<= 1 logs every slow span). A nil logger or non-positive
// threshold disables logging.
func (s *Stages) SetSlowLog(l *slog.Logger, threshold time.Duration, sampleEvery int) {
	s.logger.Store(l)
	s.slowNS.Store(int64(threshold))
	s.slowEvery.Store(int64(sampleEvery))
}

// TotalSnapshot freezes the total-duration histogram.
func (s *Stages) TotalSnapshot() *hist.Snapshot { return s.total.Snapshot() }

// StageSnapshot freezes stage i's duration histogram.
func (s *Stages) StageSnapshot(i int) *hist.Snapshot { return s.hists[i].Snapshot() }

// SlowLogged returns how many slow-span log lines have been emitted.
func (s *Stages) SlowLogged() int64 { return s.slowLogged.Load() }

// Span is one in-flight operation. The zero value is a no-op span: Mark
// and End on it do nothing, which lets callers skip instrumentation for
// some modes without branching at every boundary.
type Span struct {
	st    *Stages
	start time.Time
	last  time.Time
	durs  [MaxStages]time.Duration
}

// Start opens a span at the current clock reading.
func (s *Stages) Start() Span {
	n := s.now()
	return Span{st: s, start: n, last: n}
}

// Mark attributes the time since the previous mark (or Start) to stage
// index i. Marking the same stage twice accumulates.
func (sp *Span) Mark(i int) {
	if sp.st == nil {
		return
	}
	n := sp.st.now()
	sp.durs[i] += n.Sub(sp.last)
	sp.last = n
}

// End records the span: total duration plus every stage duration land in
// their histograms, and — when the total clears the slow threshold and
// the sampler fires — the full breakdown is logged. Abandoning a span
// without End records nothing.
func (sp *Span) End() {
	st := sp.st
	if st == nil {
		return
	}
	total := st.now().Sub(sp.start)
	st.total.Record(total)
	for i := range st.stages {
		st.hists[i].Record(sp.durs[i])
	}
	thr := st.slowNS.Load()
	if thr <= 0 || int64(total) < thr {
		return
	}
	n := st.slowSeen.Add(1)
	if every := st.slowEvery.Load(); every > 1 && (n-1)%every != 0 {
		return
	}
	l := st.logger.Load()
	if l == nil {
		return
	}
	st.slowLogged.Add(1)
	attrs := make([]slog.Attr, 0, len(st.stages)+2)
	attrs = append(attrs,
		slog.String("op", st.name),
		slog.Float64("total_ms", durMS(total)))
	for i, name := range st.stages {
		attrs = append(attrs, slog.Float64(name+"_ms", durMS(sp.durs[i])))
	}
	l.LogAttrs(context.Background(), slog.LevelWarn, "slow request", attrs...)
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
