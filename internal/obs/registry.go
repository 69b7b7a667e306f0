// Package obs is the observability layer: a dependency-free metrics
// registry with Prometheus text exposition, and a span facility that
// attributes pipeline latency to stages (see span.go).
//
// The registry is built for hot paths: a Counter is one atomic add, a
// Summary observation is one lock-free HDR histogram record
// (internal/hist), and a gauge is a callback evaluated only at scrape
// time. Registration happens at startup and may panic on programmer error
// (bad names, type conflicts, duplicates) — the same contract as
// expvar/prometheus client libraries.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hist"
)

// SummaryQuantiles are the quantile labels every summary exports.
var SummaryQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// Label is one name="value" pair attached to a series.
type Label struct{ K, V string }

// Labels is an ordered label set. Order is preserved in the exposition.
type Labels []Label

// L builds a Labels from alternating key, value strings:
// L("endpoint", "match").
func L(kv ...string) Labels {
	if len(kv)%2 != 0 {
		panic("obs.L: odd number of arguments")
	}
	ls := make(Labels, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{K: kv[i], V: kv[i+1]})
	}
	return ls
}

// Sample is one dynamically-collected series value (see GaugeSetFunc).
type Sample struct {
	Labels Labels
	Value  float64
}

// Counter is a monotonically increasing metric. The zero value is ready.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (must be >= 0 to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Summary is a duration distribution backed by an HDR histogram. It is
// exported as a Prometheus summary in seconds with SummaryQuantiles.
// The zero value is ready; Observe is lock-free.
type Summary struct{ h hist.Histogram }

// Observe records one duration.
func (s *Summary) Observe(d time.Duration) { s.h.Record(d) }

// Snapshot freezes the underlying histogram.
func (s *Summary) Snapshot() *hist.Snapshot { return s.h.Snapshot() }

type seriesKind int

const (
	kindValue   seriesKind = iota // counter or gauge: value() per scrape
	kindSummary                   // summary: snap() per scrape
)

type series struct {
	labels string // pre-rendered `k="v",...` (no braces), "" when unlabeled
	kind   seriesKind
	value  func() float64
	snap   func() *hist.Snapshot
}

type family struct {
	name, typ, help string
	series          []*series
	collect         func() []Sample // dynamic gauge set, may be nil
}

// Registry holds named metric families and renders them in Prometheus
// text exposition format. Metric operations on handles it returns are
// lock-free; registration and scraping share a RWMutex.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	onScrape []func()
	scrapeMu sync.Mutex // one scrape at a time: see OnScrape
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func renderLabels(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range ls {
		if !validName(l.K) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.K))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.K)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.V))
		b.WriteByte('"')
	}
	return b.String()
}

// register adds one series to the named family, creating the family on
// first use and enforcing name/type/duplicate invariants.
func (r *Registry) register(name, typ, help string, labels Labels, s *series) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	rendered := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, typ: typ, help: help}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	if s == nil {
		return
	}
	for _, prev := range f.series {
		if prev.labels == rendered {
			panic(fmt.Sprintf("obs: duplicate series %s{%s}", name, rendered))
		}
	}
	s.labels = rendered
	f.series = append(f.series, s)
}

// Counter registers and returns a counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	r.register(name, "counter", help, labels, &series{
		kind:  kindValue,
		value: func() float64 { return float64(c.Value()) },
	})
	return c
}

// CounterFunc registers a counter whose value is produced by fn at
// scrape time (for counts already maintained elsewhere as atomics).
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, "counter", help, labels, &series{kind: kindValue, value: fn})
}

// GaugeFunc registers a gauge evaluated by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, "gauge", help, labels, &series{kind: kindValue, value: fn})
}

// GaugeSetFunc registers a dynamic gauge family: fn is called at scrape
// time and may return a different number of labeled samples each scrape
// (e.g. one per shard).
func (r *Registry) GaugeSetFunc(name, help string, fn func() []Sample) {
	r.registerSet(name, "gauge", help, fn)
}

func (r *Registry) registerSet(name, typ, help string, fn func() []Sample) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.families[name] != nil {
		panic(fmt.Sprintf("obs: metric %q already registered", name))
	}
	r.families[name] = &family{name: name, typ: typ, help: help, collect: fn}
}

// OnScrape registers fn to run first in every scrape. Scrapes are serialized,
// so a snapshot fn pins is what every family of that scrape reads.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onScrape = append(r.onScrape, fn)
}

// Summary registers and returns a duration summary series.
func (r *Registry) Summary(name, help string, labels Labels) *Summary {
	s := &Summary{}
	r.register(name, "summary", help, labels, &series{
		kind: kindSummary,
		snap: s.Snapshot,
	})
	return s
}

// SummaryFunc registers a summary whose histogram snapshot is produced
// by fn at scrape time (for histograms maintained elsewhere). fn may
// return nil for "empty".
func (r *Registry) SummaryFunc(name, help string, labels Labels, fn func() *hist.Snapshot) {
	r.register(name, "summary", help, labels, &series{kind: kindSummary, snap: fn})
}

func formatValue(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeSample(w *bytes.Buffer, name, labels, extra string, v float64) {
	if labels != "" && extra != "" {
		labels += ","
	}
	if labels == "" && extra == "" {
		fmt.Fprintf(w, "%s %s\n", name, formatValue(v))
	} else {
		fmt.Fprintf(w, "%s{%s%s} %s\n", name, labels, extra, formatValue(v))
	}
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4), families sorted by name. Scrapes are
// serialized only while they render into memory: a slow reader of w holds
// up no other scrape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var buf bytes.Buffer
	r.scrapeMu.Lock()
	r.render(&buf)
	r.scrapeMu.Unlock()
	_, err := w.Write(buf.Bytes())
	return err
}

// render is WritePrometheus under scrapeMu.
func (r *Registry) render(w *bytes.Buffer) {
	r.mu.RLock()
	for _, fn := range r.onScrape {
		fn()
	}
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.typ)
		for _, s := range f.series {
			switch s.kind {
			case kindValue:
				writeSample(w, f.name, s.labels, "", s.value())
			case kindSummary:
				snap := s.snap()
				if snap == nil {
					snap = &hist.Snapshot{}
				}
				for _, q := range SummaryQuantiles {
					qv := snap.Quantile(q).Seconds()
					extra := `quantile="` + strconv.FormatFloat(q, 'g', -1, 64) + `"`
					writeSample(w, f.name, s.labels, extra, qv)
				}
				writeSample(w, f.name+"_sum", s.labels, "", time.Duration(snap.Sum).Seconds())
				writeSample(w, f.name+"_count", s.labels, "", float64(snap.Count))
			}
		}
		if f.collect != nil {
			for _, sm := range f.collect() {
				writeSample(w, f.name, renderLabels(sm.Labels), "", sm.Value)
			}
		}
	}
}

// Handler returns an http.Handler serving the exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
