// Command bench is the repository's benchmark: it generates inputs from a
// seed, drives the unmodified cmd/server over HTTP through one workload's
// life cycle (batch pipeline, reads, writes, crash, recovery), checks every
// output, and prints the metrics BENCHMARK.json names. See README.md.
//
//	bash bench/run.sh --workload serve_read --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Progress goes to
// standard error and the full document (both metric sets, sample counts,
// run metadata) to -out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/vector"
)

// smokeFactor is the size of a -smoke run relative to the real one.
const smokeFactor = 1.0 / 50

// result is one workload's entry in the -out document.
type result struct {
	Workload  string                 `json:"workload"`
	Why       string                 `json:"why"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"ops_attempted"`
	Failed    int64                  `json:"ops_failed"`
	Failures  []string               `json:"first_failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	WallS     float64                `json:"wall_s"`
}

// document is what -out receives.
type document struct {
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Nproc     int      `json:"nproc"`
	Kernels   string   `json:"kernels"`
	GoVersion string   `json:"go_version"`
	Commit    string   `json:"commit"`
	Results   []result `json:"results"`
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", baseSeconds, "nominal length of the measured phases; op counts scale with it")
		trace    = flag.Int("trace", 0, "1: also replay the ops in-process under spans, run the layer probes, and print the per-layer metrics")
		out      = flag.String("out", "", "write the full JSON document here (default bench/out/result-<workload>.json)")
		smoke    = flag.Bool("smoke", false, "run at 1/50 size with one set-up: exercises every code path, measures nothing")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload all|<name>] [-seed N] [-seconds S] [-trace 0|1] [-out file] [-smoke]")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var todo []spec
	if *workload == "all" {
		todo = specs
	} else {
		sp, err := findSpec(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		todo = []spec{sp}
	}
	ops, state, setups := *seconds/baseSeconds, 1.0, 3
	if *smoke {
		ops, state, setups = smokeFactor, smokeFactor, 1
	}
	if *trace == 1 {
		// The traced run reports no set-up time; one set-up leaves the
		// time for the replay and the probes.
		setups = 1
	}

	doc := document{
		Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Nproc: runtime.NumCPU(), Kernels: vector.Kernels(), GoVersion: runtime.Version(), Commit: commit(),
	}
	ok := true
	for _, sp := range todo {
		res, err := runWorkload(ctx, sp.scaled(ops, state), *seed, *trace == 1, setups)
		if err != nil {
			// No result line: the run did not finish, so there is nothing
			// to report a metric from.
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			os.Exit(1)
		}
		doc.Results = append(doc.Results, *res)
		ok = ok && res.Correct
		printLine(res, *trace == 1)
	}
	if err := writeDocument(&doc, *out, *workload, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload executes one workload and packages what it measured.
func runWorkload(ctx context.Context, sp spec, seed int64, trace bool, setups int) (*result, error) {
	start := time.Now()
	r := &run{
		ctx: ctx, sp: sp, seed: seed, trace: trace,
		setups: setups,
		logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[%s %5.1fs] %s\n", sp.name, time.Since(start).Seconds(), fmt.Sprintf(format, args...))
		},
	}
	if err := r.execute(); err != nil {
		return nil, err
	}
	res := &result{
		Workload: sp.name, Why: sp.why,
		Attempted: r.ops.attempted.Load(), Failed: r.ops.failed.Load(), Failures: r.ops.firstErrs,
		Metrics: r.metrics, WallS: time.Since(start).Seconds(),
	}
	res.Correct = res.Failed == 0
	for _, f := range res.Failures {
		r.logf("FAILED: %s", f)
	}
	r.logf("done: %d ops attempted, %d failed", res.Attempted, res.Failed)
	return res, nil
}

// printLine writes the driver's result line: every end-to-end metric, or
// with trace every per-layer metric.
func printLine(res *result, trace bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	type lineMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]lineMetric, len(defs))
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			panic("workload " + res.Workload + " did not measure " + d.name)
		}
		metrics[d.name] = lineMetric{m.Value, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(string(line))
}

func writeDocument(doc *document, path, workload string, trace bool) error {
	if path == "" {
		root, err := repoRoot()
		if err != nil {
			return err
		}
		name := "result-" + workload
		if trace {
			name += "-trace"
		}
		path = filepath.Join(root, "bench", "out", name+".json")
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// commit names the checkout's commit, or "unknown" outside a git checkout
// (the driver's checkouts are plain directories).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
