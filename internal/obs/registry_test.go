package obs

import (
	"fmt"
	"io"
	"maps"
	"math"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goldenExposition is what TestExpositionGolden's registry renders.
const goldenExposition = `# HELP test_external_total An externally counted counter.
# TYPE test_external_total counter
test_external_total 7
# HELP test_latency_seconds A latency summary.
# TYPE test_latency_seconds summary
test_latency_seconds{endpoint="match",quantile="0.5"} 0.001
test_latency_seconds{endpoint="match",quantile="0.9"} 0.001
test_latency_seconds{endpoint="match",quantile="0.99"} 0.001
test_latency_seconds{endpoint="match",quantile="0.999"} 0.001
test_latency_seconds_sum{endpoint="match"} 0.002
test_latency_seconds_count{endpoint="match"} 2
# HELP test_requests_total Requests served.
# TYPE test_requests_total counter
test_requests_total{endpoint="match"} 42
# HELP test_shard_live Per-shard live rows.
# TYPE test_shard_live gauge
test_shard_live{shard="0"} 10
test_shard_live{shard="1"} 20
# HELP test_temperature A negative gauge.
# TYPE test_temperature gauge
test_temperature -3.5
# HELP test_uptime_seconds A computed gauge.
# TYPE test_uptime_seconds gauge
test_uptime_seconds 12
`

// TestExpositionGolden pins the exact rendered exposition for one of
// every metric kind, so format drift is a deliberate diff.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests served.", L("endpoint", "match"))
	c.Add(41)
	c.Inc()
	r.GaugeFunc("test_temperature", "A negative gauge.", nil, func() float64 { return -3.5 })
	r.GaugeFunc("test_uptime_seconds", "A computed gauge.", nil, func() float64 { return 12 })
	r.CounterFunc("test_external_total", "An externally counted counter.", nil, func() float64 { return 7 })
	s := r.Summary("test_latency_seconds", "A latency summary.", L("endpoint", "match"))
	s.Observe(time.Millisecond)
	s.Observe(time.Millisecond)
	r.GaugeSetFunc("test_shard_live", "Per-shard live rows.", func() []Sample {
		return []Sample{
			{Labels: L("shard", "0"), Value: 10},
			{Labels: L("shard", "1"), Value: 20},
		}
	})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	// 1ms lands in an HDR bucket whose midpoint reconstructs to ~1.008ms,
	// clamped to the exact min/max (1ms) for a single-valued histogram.
	want := goldenExposition
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	exp, err := ParseExposition(strings.NewReader(got))
	if err != nil {
		t.Fatalf("own exposition fails strict parse: %v", err)
	}
	if v := exp.Value(`test_requests_total{endpoint="match"}`); v != 42 {
		t.Errorf("parsed counter = %v, want 42", v)
	}
	if exp.Types["test_latency_seconds"] != "summary" {
		t.Errorf("parsed type = %q, want summary", exp.Types["test_latency_seconds"])
	}
}

// malformedExpositions each break one rule ParseExposition enforces; the
// line a case names is the one its error must number.
var malformedExpositions = []struct {
	name, in string
	line     int
}{
	{"no TYPE", "foo 1\n", 1},
	{"bad value", "# TYPE foo gauge\nfoo abc\n", 2},
	{"bad name", "# TYPE 9foo gauge\n", 1},
	{"bad type", "# TYPE foo banana\n", 1},
	{"duplicate TYPE", "# TYPE foo gauge\n# TYPE foo gauge\nfoo 1\n", 2},
	{"duplicate series", "# TYPE foo gauge\nfoo 1\nfoo 2\n", 3},
	{"unterminated labels", "# TYPE foo gauge\nfoo{a=\"b\" 1\n", 2},
	{"unquoted label", "# TYPE foo gauge\nfoo{a=b} 1\n", 2},
	{"missing value", "# TYPE foo gauge\nfoo\n", 2},
	{"suffix on gauge", "# TYPE foo gauge\nfoo_count 1\n", 2},
	// Longer than the scanner's 1 MiB cap: refused, with its number, like
	// every other violation.
	{"line over 1 MiB", "# TYPE foo gauge\nfoo 1\n" + strings.Repeat("a", 2<<20) + "\n", 3},
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	for _, c := range malformedExpositions {
		_, err := ParseExposition(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: parse accepted %.80q", c.name, c.in)
			continue
		}
		if want := fmt.Sprintf("line %d: ", c.line); !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: error %q does not start with %q", c.name, err, want)
		}
	}
}

// lineNumbered matches the prefix of every ParseExposition error.
var lineNumbered = regexp.MustCompile(`^line [1-9][0-9]*: `)

// FuzzParseExposition: the loadgen scraper and the benchmark parse a live
// server's /metrics with ParseExposition. On any input it must not panic,
// every error must carry the line number it promises, and a blank line added
// after an accepted input must change nothing it parsed.
func FuzzParseExposition(f *testing.F) {
	f.Add(goldenExposition)
	for _, c := range malformedExpositions {
		if len(c.in) < 1<<10 {
			f.Add(c.in)
		}
	}
	f.Fuzz(func(t *testing.T, in string) {
		exp, err := ParseExposition(strings.NewReader(in))
		if err != nil {
			if exp != nil || !lineNumbered.MatchString(err.Error()) {
				t.Fatalf("error %q (exposition %v) is not a line-numbered refusal", err, exp != nil)
			}
			return
		}
		again, err := ParseExposition(strings.NewReader(in + "\n\n"))
		if err != nil {
			t.Fatalf("accepted input refused after a blank line: %v", err)
		}
		sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if !maps.EqualFunc(exp.Values, again.Values, sameBits) || !maps.Equal(exp.Types, again.Types) {
			t.Fatalf("a blank line changed the parse: %v %v, then %v %v", exp.Values, exp.Types, again.Values, again.Types)
		}
	})
}

func TestParseExpositionSummarySuffixes(t *testing.T) {
	in := "# TYPE lat summary\nlat{quantile=\"0.5\"} 0.1\nlat_sum 5\nlat_count 50\n"
	exp, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if exp.Value("lat_count") != 50 {
		t.Errorf("lat_count = %v", exp.Value("lat_count"))
	}
	if _, ok := exp.Values[`lat{quantile="0.5"}`]; !ok {
		t.Error("quantile series missing")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("esc", "h", L("path", "a\"b\\c\nd"), func() float64 { return 1 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("escaped exposition fails parse: %v\n%s", err, b.String())
	}
	if len(exp.Values) != 1 {
		t.Fatalf("want 1 series, got %v", exp.Values)
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("a_total", "h", nil)
	mustPanic("dup series", func() { r.Counter("a_total", "h", nil) })
	mustPanic("type conflict", func() { r.GaugeFunc("a_total", "h", nil, func() float64 { return 0 }) })
	mustPanic("bad name", func() { r.Counter("9bad", "h", nil) })
	mustPanic("bad label", func() { r.Counter("ok_total", "h", L("9bad", "v")) })
	mustPanic("odd L", func() { L("k") })
}

// TestRegistryConcurrentScrape hammers counter/summary writes while
// scraping; run under -race this is the registry's concurrency contract.
func TestRegistryConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total", "h", nil)
	s := r.Summary("hammer_seconds", "h", nil)
	var g atomic.Int64
	r.GaugeFunc("hammer_gauge", "h", nil, func() float64 { return float64(g.Load()) })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				s.Observe(time.Duration(n%1000) * time.Microsecond)
				g.Store(int64(n))
			}
		}(i)
	}
	// Late registration during scrapes must also be safe.
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Error(err)
			break
		}
		if _, err := ParseExposition(strings.NewReader(b.String())); err != nil {
			t.Errorf("scrape %d: %v", i, err)
			break
		}
		if i == 25 {
			r.GaugeFunc("late_gauge", "h", nil, func() float64 { return 1 })
		}
	}
	close(stop)
	wg.Wait()
}

// stalledWriter blocks every Write until release is closed, as a /metrics
// client that stopped reading does.
type stalledWriter struct{ writing, release chan struct{} }

func (w stalledWriter) Write(p []byte) (int, error) {
	w.writing <- struct{}{}
	<-w.release
	return len(p), nil
}

// TestStalledScrapeBlocksNoOther: a scrape whose reader stalls mid-write
// holds up no other scrape; only rendering is serialized.
func TestStalledScrapeBlocksNoOther(t *testing.T) {
	r := NewRegistry()
	r.Counter("stall_total", "h", nil).Inc()
	w := stalledWriter{make(chan struct{}), make(chan struct{})}
	go r.WritePrometheus(w)
	<-w.writing
	defer close(w.release)
	other := make(chan error)
	go func() { other <- r.WritePrometheus(io.Discard) }()
	select {
	case err := <-other:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a scrape waited on another scrape's stalled reader")
	}
}
