package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call, recorded by the harness around a call into a
// layer's public function. Spans of one operation share Op (the ID of the
// operation's root span); Parent is the span that caused this one, 0 for a
// root. Times are nanoseconds since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends; nothing is written while
// anything is being timed.
type tracer struct {
	mu    sync.Mutex
	spans []span
	epoch time.Time
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (0 opens a root, which starts a new
// operation) and returns its ID.
func (t *tracer) begin(parent int, layer, name string) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	op := id
	if parent != 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// span times fn as a child of parent.
func (t *tracer) span(parent int, layer, name string, fn func()) {
	id := t.begin(parent, layer, name)
	fn()
	t.end(id)
}

// durations returns the lengths, in nanoseconds, of every finished span of
// the given layer and name.
func (t *tracer) durations(layer, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name && s.End != 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spanCost measures what one span costs the traced code: the median over
// many empty spans.
func spanCost() float64 {
	t := newTracer()
	const n = 20000
	costs := make([]float64, n)
	for i := range costs {
		t0 := time.Now()
		t.span(0, "bench", "empty", func() {})
		costs[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(costs)
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
