// Command loadgen is an open-loop HTTP load driver for cmd/server. It
// generates template-driven records (internal/datagen.Stream) and posts
// them to /match and /add at a fixed target arrival rate: send instants are
// scheduled up front and never gated on responses, so a server stall (a
// snapshot checkpoint, a WAL fsync burst, an epoch publish) surfaces as
// queueing delay in the reported tail percentiles instead of being hidden
// by coordinated omission. Latency is measured from the scheduled instant
// to response completion and recorded in HDR-style histograms
// (p50/p90/p99/p999 per endpoint), alongside error/timeout/drop counts.
//
// It drives an already-running server, one trial per invocation:
//
//	loadgen -url http://localhost:8080 -rate 500 -duration 30s \
//	    -match-ratio 0.9 -batch 16 -dataset Geo -zipf 1.2 -json report.json
//
// The -dataset family must match the one the server was built from, so
// generated records have the server's schema arity.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/datagen"
	"repro/internal/loadgen"
	"repro/internal/obs"
)

func main() {
	var (
		url        = flag.String("url", "", "base URL of a running server")
		rate       = flag.Float64("rate", 200, "target arrival rate, requests/second across both endpoints")
		duration   = flag.Duration("duration", 30*time.Second, "measured window per trial")
		warmup     = flag.Duration("warmup", 2*time.Second, "warmup window before measurement (sent, not recorded)")
		matchRatio = flag.Float64("match-ratio", 0.9, "fraction of arrivals that are /match queries; the rest are /add batches")
		k          = flag.Int("k", 1, "/match candidate width")
		batch      = flag.String("batch", "16", "/add batch size: fixed (\"16\") or uniform range (\"8..64\")")
		dataset    = flag.String("dataset", "Geo", "record template family (must match the server's dataset)")
		universe   = flag.Int("universe", 10000, "entity key space: distinct identities the stream can emit")
		zipf       = flag.Float64("zipf", 0, "key skew: 0 = uniform, > 1 = Zipf s parameter")
		seed       = flag.Int64("seed", 1, "workload seed")
		timeout    = flag.Duration("timeout", 5*time.Second, "per-request timeout")
		inflight   = flag.Int("max-inflight", 4096, "max outstanding requests; arrivals beyond it are dropped and counted, not delayed")
		jsonOut    = flag.String("json", "", "write the full report (client + server views) as JSON to this path")
		failOnErr  = flag.Bool("fail-on-error", false, "exit non-zero when any request errored or nothing completed (CI smoke gate)")
	)
	flag.Parse()

	if *url == "" {
		fatalf("-url is required")
	}
	out, err := runTrial(*url, trialParams{
		rate:       *rate,
		duration:   *duration,
		warmup:     *warmup,
		matchRatio: *matchRatio,
		k:          *k,
		batch:      *batch,
		dataset:    *dataset,
		universe:   *universe,
		zipf:       *zipf,
		seed:       *seed,
		timeout:    *timeout,
		inflight:   *inflight,
	})
	if err != nil {
		fatalf("%v", err)
	}
	printReport(os.Stdout, out)
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, out); err != nil {
			fatalf("write %s: %v", *jsonOut, err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if *failOnErr {
		if out.Report.OK() == 0 {
			fatalf("no request completed successfully")
		}
		if e := out.Report.Errors(); e > 0 || out.Report.WarmupErrors > 0 {
			fatalf("%d measured errors, %d warmup errors", e, out.Report.WarmupErrors)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(1)
}

// trialParams is one trial's client-side configuration.
type trialParams struct {
	rate       float64
	duration   time.Duration
	warmup     time.Duration
	matchRatio float64
	k          int
	batch      string
	dataset    string
	universe   int
	zipf       float64
	seed       int64
	timeout    time.Duration
	inflight   int
}

// output bundles the client-side report with the server's own /stats view
// scraped before and after the trial, so one artifact carries both sides of
// the reconciliation.
type output struct {
	Report *loadgen.Report `json:"report"`
	// ServerBefore/ServerAfter are /stats scrapes bracketing the trial
	// (nil when the scrape failed).
	ServerBefore *serverStats `json:"server_before,omitempty"`
	ServerAfter  *serverStats `json:"server_after,omitempty"`
	// MetricsBefore/MetricsAfter are parsed /metrics scrapes bracketing
	// the trial (nil when the scrape failed, or against an older server
	// without the endpoint): the Prometheus-side view of the same run,
	// carrying series /stats does not (stage latency, epoch age).
	MetricsBefore *obs.Exposition `json:"metrics_before,omitempty"`
	MetricsAfter  *obs.Exposition `json:"metrics_after,omitempty"`
}

// serverStats is the subset of the server's /stats response the harness
// uses: epoch, WAL activity, and per-endpoint latency summaries.
type serverStats struct {
	Epoch    uint64 `json:"epoch"`
	Entities int64  `json:"entities"`
	Tuples   int64  `json:"tuples"`
	WAL      *struct {
		Segments  int   `json:"segments"`
		Bytes     int64 `json:"bytes"`
		Appends   int64 `json:"appends"`
		Syncs     int64 `json:"syncs"`
		Snapshots int64 `json:"snapshots"`
	} `json:"wal"`
	Endpoints map[string]struct {
		Requests int64   `json:"requests"`
		Errors   int64   `json:"errors"`
		P50Ms    float64 `json:"p50_ms"`
		P90Ms    float64 `json:"p90_ms"`
		P99Ms    float64 `json:"p99_ms"`
		P999Ms   float64 `json:"p999_ms"`
		MaxMs    float64 `json:"max_ms"`
	} `json:"endpoints"`
}

// runTrial executes one open-loop trial against baseURL with /stats scrapes
// bracketing it.
func runTrial(baseURL string, p trialParams) (*output, error) {
	w, err := newWorkload(p)
	if err != nil {
		return nil, err
	}
	out := &output{}
	out.ServerBefore, _ = scrapeStats(baseURL) // best-effort; nil on failure
	out.MetricsBefore, _ = scrapeMetrics(baseURL)
	rep, err := loadgen.Run(loadgen.Config{
		BaseURL:     baseURL,
		Rate:        p.rate,
		Duration:    p.duration,
		Warmup:      p.warmup,
		MatchRatio:  p.matchRatio,
		K:           p.k,
		Timeout:     p.timeout,
		MaxInFlight: p.inflight,
		Seed:        p.seed,
		Workload:    w,
	})
	if err != nil {
		return nil, err
	}
	out.Report = rep
	out.ServerAfter, _ = scrapeStats(baseURL)
	out.MetricsAfter, _ = scrapeMetrics(baseURL)
	return out, nil
}

// scrapeMetrics fetches and strictly parses /metrics; a malformed
// exposition is an error, not a partial result, so a report cannot carry
// numbers from a broken scrape surface.
func scrapeMetrics(baseURL string) (*obs.Exposition, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return obs.ParseExposition(resp.Body)
}

// scrapeStats fetches and decodes /stats.
func scrapeStats(baseURL string) (*serverStats, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(baseURL + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/stats: HTTP %d", resp.StatusCode)
	}
	var s serverStats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// newWorkload builds the record stream + batch sizer for one trial.
func newWorkload(p trialParams) (*workload, error) {
	stream, err := datagen.NewStream(p.dataset, p.universe, p.zipf, p.seed)
	if err != nil {
		return nil, err
	}
	lo, hi, err := parseBatch(p.batch)
	if err != nil {
		return nil, err
	}
	return &workload{
		stream: stream,
		lo:     lo,
		hi:     hi,
		rng:    rand.New(rand.NewSource(p.seed + 1)),
	}, nil
}

// workload adapts datagen.Stream to the driver, with a fixed or
// uniform-range batch size. Called only from the dispatch goroutine.
type workload struct {
	stream *datagen.Stream
	lo, hi int
	rng    *rand.Rand
}

func (w *workload) MatchValues() []string { return w.stream.Record() }

func (w *workload) AddBatch() [][]string {
	n := w.lo
	if w.hi > w.lo {
		n = w.lo + w.rng.Intn(w.hi-w.lo+1)
	}
	return w.stream.Batch(n)
}

// parseBatch parses "16" or "8..64".
func parseBatch(s string) (lo, hi int, err error) {
	if a, b, ok := strings.Cut(s, ".."); ok {
		lo, err = strconv.Atoi(a)
		if err == nil {
			hi, err = strconv.Atoi(b)
		}
		if err != nil || lo < 1 || hi < lo {
			return 0, 0, fmt.Errorf("bad -batch range %q (want \"lo..hi\", 1 <= lo <= hi)", s)
		}
		return lo, hi, nil
	}
	lo, err = strconv.Atoi(s)
	if err != nil || lo < 1 {
		return 0, 0, fmt.Errorf("bad -batch %q (want a positive integer or \"lo..hi\")", s)
	}
	return lo, lo, nil
}

// printReport renders the human-readable trial summary.
func printReport(w *os.File, out *output) {
	r := out.Report
	fmt.Fprintf(w, "open-loop trial: target %.1f req/s, measured %.1fs (+%.1fs warmup), scheduled %d, achieved %.1f req/s\n",
		r.TargetRate, r.DurationSeconds, r.WarmupSeconds, r.Scheduled, r.AchievedRate)
	if r.WarmupErrors > 0 {
		fmt.Fprintf(w, "WARNING: %d errors during warmup\n", r.WarmupErrors)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "endpoint\tsent\tok\terr\ttimeout\tdrop\trows\tp50ms\tp90ms\tp99ms\tp999ms\tmaxms\tmeanms")
	for _, name := range sortedKeys(r.Endpoints) {
		ep := r.Endpoints[name]
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			name, ep.Sent, ep.OK, ep.Errors, ep.Timeouts, ep.Dropped, ep.Rows,
			ep.P50Ms, ep.P90Ms, ep.P99Ms, ep.P999Ms, ep.MaxMs, ep.MeanMs)
	}
	tw.Flush()
	if out.ServerAfter != nil && len(out.ServerAfter.Endpoints) > 0 {
		fmt.Fprintln(w, "server-side view (/stats, since server start):")
		tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "endpoint\trequests\terr\tp50ms\tp90ms\tp99ms\tp999ms\tmaxms")
		names := make([]string, 0, len(out.ServerAfter.Endpoints))
		for name := range out.ServerAfter.Endpoints {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			es := out.ServerAfter.Endpoints[name]
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
				name, es.Requests, es.Errors, es.P50Ms, es.P90Ms, es.P99Ms, es.P999Ms, es.MaxMs)
		}
		tw.Flush()
		if out.ServerBefore != nil {
			dEpoch := out.ServerAfter.Epoch - out.ServerBefore.Epoch
			fmt.Fprintf(w, "epoch advances: %d (%.1f/s)", dEpoch, float64(dEpoch)/r.DurationSeconds)
			if out.ServerAfter.WAL != nil {
				fmt.Fprintf(w, "  wal bytes: %d  snapshots: +%d",
					out.ServerAfter.WAL.Bytes, out.ServerAfter.WAL.Snapshots-walSnapshots(out.ServerBefore))
			}
			fmt.Fprintln(w)
		}
	}
}

func walSnapshots(s *serverStats) int64 {
	if s == nil || s.WAL == nil {
		return 0
	}
	return s.WAL.Snapshots
}

func sortedKeys(m map[string]*loadgen.EndpointReport) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
