// Benchmarks regenerating the paper's tables and figures (one benchmark per
// table/figure), complexity-scaling benches validating Lemmas 1-3, and
// ablation benches for the paper's design choices and the merge backend.
//
// Benchmark scales are deliberately small so `go test -bench=.` completes in
// minutes; cmd/experiments runs the full-scale versions. A paper bench is a
// timing loop over internal/experiments — RunMethod runs each method, Sweeps
// holds the Figure 6 grids, ConfigFor the tuned hyperparameters — so a bench
// and cmd/experiments give the same numbers at the same config. Quality
// metrics (F1, pair-F1) are attached to benchmark output via b.ReportMetric,
// so a single bench run reproduces both the performance and effectiveness
// shape, the same on either kernel path (they return the same bits).
package repro_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"testing"

	"repro"
	"repro/internal/ann"
	"repro/internal/baselines"
	"repro/internal/datagen"
	"repro/internal/embed"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/hnsw"
	"repro/internal/multiem"
	"repro/internal/table"
	"repro/internal/vector"
	"repro/internal/wal"
)

// benchConfig returns the harness's tuned configuration for a dataset at a
// reduced generation scale.
func benchConfig(name string, scale float64) experiments.DatasetConfig {
	cfg := *experiments.ConfigFor(name)
	cfg.Scale = scale
	return cfg
}

// benchConfigs returns the reduced-scale dataset configs of the paper benches.
func benchConfigs() []experiments.DatasetConfig {
	return []experiments.DatasetConfig{benchConfig("Geo", 0.3), benchConfig("Music-20", 0.1), benchConfig("Shopee", 0.05)}
}

func mustGen(b *testing.B, name string, scale float64, seed int64) *repro.Dataset {
	b.Helper()
	d, err := repro.GenerateDataset(name, scale, seed)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// runMethod is a paper bench's timed loop: b.N calls of experiments.RunMethod
// for one experiments.Methods row. It returns the last call's tuples and, for
// a MultiEM row, its result. ctx is the baselines' shared context (nil for
// MultiEM rows).
func runMethod(b *testing.B, method string, cfg experiments.DatasetConfig, d *repro.Dataset, ctx *baselines.Context) ([][]int, *multiem.Result) {
	b.Helper()
	var tuples [][]int
	var res *multiem.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if tuples, res, err = experiments.RunMethod(method, cfg, d, ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	return tuples, res
}

func reportF1(b *testing.B, d *repro.Dataset, tuples [][]int) {
	b.ReportMetric(100*repro.Evaluate(tuples, d.Truth).Tuple.F1, "F1")
}

// sequentialParallel names the two legs of Table V and Figure 5.
var sequentialParallel = []struct{ name, method string }{
	{"sequential", "MultiEM"}, {"parallel", "MultiEM (parallel)"},
}

// ---- Table III ------------------------------------------------------------

func BenchmarkTable3_DatasetGen(b *testing.B) {
	for _, name := range repro.DatasetNames() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := mustGen(b, name, 0.01, 1)
				if d.NumEntities() == 0 {
					b.Fatal("empty dataset")
				}
			}
		})
	}
}

// ---- Table IV: matching performance ---------------------------------------

func BenchmarkTable4_MultiEM(b *testing.B) {
	for _, cfg := range benchConfigs() {
		b.Run(cfg.Name, func(b *testing.B) {
			d := mustGen(b, cfg.Name, cfg.Scale, cfg.Seed)
			tuples, _ := runMethod(b, "MultiEM", cfg, d, nil)
			rep := repro.Evaluate(tuples, d.Truth)
			b.ReportMetric(100*rep.Tuple.F1, "F1")
			b.ReportMetric(100*rep.Pair.F1, "pair-F1")
		})
	}
}

func BenchmarkTable4_Baselines(b *testing.B) {
	cfg := benchConfigs()[0] // Geo: the one dataset every baseline completes
	d := mustGen(b, cfg.Name, cfg.Scale, cfg.Seed)
	ctx, err := baselines.NewContext(d, embed.NewHashEncoder())
	if err != nil {
		b.Fatal(err)
	}
	for _, leg := range []struct{ name, method string }{
		{"Ditto-chain", "Ditto (c)"},
		{"PromptEM-pairwise", "PromptEM (pw)"},
		{"AutoFJ-pairwise", "AutoFJ (pw)"},
		{"MSCD-HAC", "MSCD-HAC"},
		{"ALMSER-GB", "ALMSER-GB"},
	} {
		b.Run(leg.name, func(b *testing.B) {
			tuples, _ := runMethod(b, leg.method, cfg, d, ctx)
			reportF1(b, d, tuples)
		})
	}
}

// ---- Table V: running time (sequential vs parallel) ------------------------

func BenchmarkTable5_Runtime(b *testing.B) {
	for _, cfg := range benchConfigs() {
		d := mustGen(b, cfg.Name, cfg.Scale, cfg.Seed)
		for _, leg := range sequentialParallel {
			b.Run(cfg.Name+"/"+leg.name, func(b *testing.B) {
				runMethod(b, leg.method, cfg, d, nil)
			})
		}
	}
}

// ---- Table VI: memory (allocation profile via -benchmem) -------------------

func BenchmarkTable6_Memory(b *testing.B) {
	cfg := benchConfigs()[1] // Music-20
	d := mustGen(b, cfg.Name, cfg.Scale, cfg.Seed)
	b.Run("MultiEM", func(b *testing.B) {
		b.ReportAllocs()
		runMethod(b, "MultiEM", cfg, d, nil)
	})
	b.Run("MSCD-HAC-infeasible", func(b *testing.B) {
		// The paper's "\" cell: Music-20's full size is over
		// experiments.GateMSCDHAC, so the harness must show the cell
		// instead of running MSCD-HAC.
		for i := 0; i < b.N; i++ {
			rows, err := experiments.RunDataset(cfg, []string{"MSCD-HAC"})
			if err != nil {
				b.Fatal(err)
			}
			if rows[0].Skipped != `\` {
				b.Fatalf("MSCD-HAC on Music-20 reads %+v, want the \\ cell", rows[0])
			}
		}
	})
}

// ---- Table VII: attribute selection ----------------------------------------

func BenchmarkTable7_AttrSelect(b *testing.B) {
	for _, cfg := range benchConfigs() {
		b.Run(cfg.Name, func(b *testing.B) {
			d := mustGen(b, cfg.Name, cfg.Scale, cfg.Seed)
			opt := cfg.MultiEMOptions()
			b.ReportAllocs()
			b.ResetTimer()
			var nSel int
			for i := 0; i < b.N; i++ {
				_, sel := repro.SelectAttributes(d, opt)
				nSel = len(sel)
			}
			b.ReportMetric(float64(nSel), "selected-attrs")
		})
	}
}

// ---- Figure 5: per-module running time --------------------------------------

func BenchmarkFigure5_Phases(b *testing.B) {
	cfg := benchConfigs()[1]
	d := mustGen(b, cfg.Name, cfg.Scale, cfg.Seed)
	for _, leg := range sequentialParallel {
		b.Run(leg.name, func(b *testing.B) {
			_, res := runMethod(b, leg.method, cfg, d, nil)
			t := res.Timings
			b.ReportMetric(t.Select.Seconds()*1000, "S-ms")
			b.ReportMetric(t.Represent.Seconds()*1000, "R-ms")
			b.ReportMetric(t.Merge.Seconds()*1000, "M-ms")
			b.ReportMetric(t.Prune.Seconds()*1000, "P-ms")
		})
	}
}

// ---- Figure 6: sensitivity sweeps -------------------------------------------

// benchSweep runs one experiments.Sweeps curve on the Geo bench config, a
// sub-benchmark per grid value.
func benchSweep(b *testing.B, figure string) {
	k := slices.IndexFunc(experiments.Sweeps, func(s experiments.Sweep) bool { return s.Figure == figure })
	if k < 0 {
		b.Fatalf("no Figure %s sweep", figure)
	}
	sweep := experiments.Sweeps[k]
	cfg := benchConfigs()[0]
	d := mustGen(b, cfg.Name, cfg.Scale, cfg.Seed)
	for _, v := range sweep.Grid {
		b.Run(fmt.Sprintf("%g", v), func(b *testing.B) {
			opt := cfg.MultiEMOptions()
			sweep.Set(&opt, v)
			var res *repro.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = repro.Match(d, opt); err != nil {
					b.Fatal(err)
				}
			}
			reportF1(b, d, res.Tuples)
		})
	}
}

func BenchmarkFigure6a_Gamma(b *testing.B)          { benchSweep(b, "6a") }
func BenchmarkFigure6b_MergeOrderSeed(b *testing.B) { benchSweep(b, "6b") }
func BenchmarkFigure6c_M(b *testing.B)              { benchSweep(b, "6c") }
func BenchmarkFigure6e_Eps(b *testing.B)            { benchSweep(b, "6e") }

// ---- Lemmas 1-3: merging strategy complexity scaling -----------------------
//
// The paper proves pairwise matching is O(S²·2kn·log n) (Lemma 1), chain
// matching O(S²kn·log n) (Lemma 2), and hierarchical merging
// O(Skn·log S·log n) (Lemma 3). These benches grow S with n fixed so the
// S-scaling (quadratic vs quadratic vs near-linear) is observable in
// wall-clock time.

func lemmaDataset(b *testing.B, sources int) (*repro.Dataset, *baselines.Context) {
	b.Helper()
	spec := datagen.Spec{
		Name:    fmt.Sprintf("lemma-%d", sources),
		Sources: sources,
		Attrs:   []string{"title"},
		Tuples:  60 * sources, Singletons: 40 * sources,
		SizeWeights: map[int]float64{2: 0.6, 3: 0.4},
		Severity:    0.4,
		Domain:      datagen.DomainProduct,
	}
	d, err := datagen.Generate(spec, 1.0, 5)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := baselines.NewContext(d, embed.NewHashEncoder())
	if err != nil {
		b.Fatal(err)
	}
	return d, ctx
}

func BenchmarkLemma_MergingStrategies(b *testing.B) {
	for _, sources := range []int{4, 8, 16} {
		d, ctx := lemmaDataset(b, sources)
		fj := baselines.NewAutoFJ() // unsupervised pair matcher for pw/chain
		b.Run(fmt.Sprintf("pairwise/S=%d", sources), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baselines.PairwiseMatch(ctx, fj)
			}
		})
		b.Run(fmt.Sprintf("chain/S=%d", sources), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baselines.ChainMatch(ctx, fj)
			}
		})
		b.Run(fmt.Sprintf("hierarchical/S=%d", sources), func(b *testing.B) {
			opt := repro.DefaultOptions()
			opt.M = 0.3
			opt.DisableAttrSelect = true
			for i := 0; i < b.N; i++ {
				if _, err := repro.Match(d, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Ablations -----------------------------------------------------------------

// BenchmarkAblation_ANNBackend compares the three two-table join backends on
// one pipeline (auto is the default; hnsw and brute force one leg), and its
// "sweep" sub-benchmark measures the two legs in isolation over table size —
// the two constants of BackendAuto's cost model in internal/multiem/merge.go:
//
//	go test -run '^$' -bench 'BenchmarkAblation_ANNBackend/sweep' -benchtime 1x .
//
// reports ns/pair for the exact join (|a|·|b| row pairs) and us/row for HNSW
// build + search (|a|+|b| rows), sequential, on two Music-200 source tables
// of the given size embedded at the pipeline's dimension (256).
func BenchmarkAblation_ANNBackend(b *testing.B) {
	cfg := benchConfigs()[0]
	d := mustGen(b, cfg.Name, cfg.Scale, cfg.Seed)
	for _, leg := range []struct {
		name    string
		backend multiem.ANNBackend
	}{{"auto", multiem.BackendAuto}, {"hnsw", multiem.BackendHNSW}, {"brute", multiem.BackendBrute}} {
		b.Run(leg.name, func(b *testing.B) {
			opt := cfg.MultiEMOptions()
			opt.Backend = leg.backend
			var f1 float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := repro.Match(d, opt)
				if err != nil {
					b.Fatal(err)
				}
				f1 = repro.Evaluate(res.Tuples, d.Truth).Tuple.F1
			}
			b.ReportMetric(100*f1, "F1")
		})
	}
	b.Run("sweep", func(b *testing.B) {
		opt := repro.DefaultOptions()
		for _, rows := range []int{500, 1000, 2000, 4000, 8000, 16000, 32000} {
			if testing.Short() && rows > 1000 {
				break // bench-smoke: prove both legs run, skip the minutes
			}
			// Music-200 has five sources of ~40k rows at scale 1.
			sd := mustGen(b, "Music-200", float64(rows)/40000, 17)
			side := func(t *table.Table) *vector.Store {
				texts := make([]string, t.Len())
				for i, e := range t.Entities {
					texts[i] = table.Serialize(e, nil)
				}
				return embed.BatchStore(opt.Encoder, texts)
			}
			ta, tb := side(sd.Tables[0]), side(sd.Tables[1])
			var pairs int
			b.Run(fmt.Sprintf("exact/rows=%d", rows), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pairs = len(ann.MutualTopKExact(ta, tb, opt.K, opt.M, 1))
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ta.Len()*tb.Len()), "ns/pair")
				b.ReportMetric(float64(pairs), "matched")
			})
			b.Run(fmt.Sprintf("hnsw/rows=%d", rows), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ia, ib := ann.HNSWOverRows(ta, opt.HNSW), ann.HNSWOverRows(tb, opt.HNSW)
					pairs = len(ann.MutualTopK(ta, ib, tb, ia, opt.K, opt.M, 0, 1))
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/float64(ta.Len()+tb.Len()), "us/row")
				b.ReportMetric(float64(pairs), "matched")
			})
		}
	})
}

func BenchmarkAblation_EERAndDP(b *testing.B) {
	cfg := benchConfigs()[1]
	d := mustGen(b, cfg.Name, cfg.Scale, cfg.Seed)
	for _, leg := range []struct{ name, method string }{
		{"full", "MultiEM"}, {"w/o-EER", "MultiEM w/o EER"}, {"w/o-DP", "MultiEM w/o DP"},
	} {
		b.Run(leg.name, func(b *testing.B) {
			tuples, _ := runMethod(b, leg.method, cfg, d, nil)
			reportF1(b, d, tuples)
		})
	}
}

func BenchmarkAblation_MutualVsOneDirectional(b *testing.B) {
	// Mutual top-K (Eq. 1) vs accepting every one-directional top-K pair:
	// implemented by comparing MultiEM's K=1 mutual filter against
	// blocking-only pair acceptance at the same threshold.
	cfg := benchConfigs()[0]
	d := mustGen(b, cfg.Name, cfg.Scale, cfg.Seed)
	ctx, err := baselines.NewContext(d, embed.NewHashEncoder())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("mutual", func(b *testing.B) {
		tuples, _ := runMethod(b, "MultiEM", cfg, d, nil)
		reportF1(b, d, tuples)
	})
	b.Run("one-directional", func(b *testing.B) {
		var f1 float64
		for i := 0; i < b.N; i++ {
			var pairs []baselines.IDPair
			ts := d.Tables
			for x := 0; x < len(ts); x++ {
				for y := x + 1; y < len(ts); y++ {
					pairs = append(pairs, baselines.BlockTopK(ctx, ts[x], ts[y], 1)...)
				}
			}
			tuples := baselines.PairsToTuples(pairs)
			f1 = eval.Evaluate(tuples, d.Truth).Tuple.F1
		}
		b.ReportMetric(100*f1, "F1")
	})
}

// ---- Online matcher: sharded serving workloads -------------------------------
//
// The matcher's state is hash-sharded (one arena + HNSW index + RWMutex per
// shard); these benches measure how ingest and mixed read/write traffic scale
// with shard count. rows/s is the number of records ingested per second;
// "parity" on the sharded-match bench is the fraction of queries whose
// candidate sets (entity IDs and distances) are identical to the single-shard
// matcher's — the sharded layout must be an execution detail, not a result
// change.

// benchMatcher builds a serving matcher over the small Geo dataset with a
// fixed shard count.
func benchMatcher(b *testing.B, shards int) (*repro.Matcher, *repro.Dataset) {
	b.Helper()
	d := mustGen(b, "Geo", 0.3, 11)
	opt := repro.DefaultOptions()
	opt.M = 0.5
	opt.Shards = shards
	m, err := repro.BuildMatcher(d, opt)
	if err != nil {
		b.Fatal(err)
	}
	return m, d
}

// benchIngestRows generates deterministic synthetic records (schema width 3,
// matching Geo) that are distinct across batches, so every row exercises the
// full embed + fan-out search + apply path.
func benchIngestRows(batch, n int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		id := batch*n + i
		rows[i] = []string{
			fmt.Sprintf("station %d sector %d", id, id%97),
			fmt.Sprintf("%d.%02d", id%90, id%100),
			fmt.Sprintf("-%d.%02d", id%80, (id*7)%100),
		}
	}
	return rows
}

// BenchmarkMatcherIngest measures AddRecords batch throughput per shard
// count: one op ingests a 256-row batch, partitioned across shards and
// applied concurrently.
func BenchmarkMatcherIngest(b *testing.B) {
	const batchSize = 256
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			m, _ := benchMatcher(b, shards)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.AddRecords(benchIngestRows(i, batchSize)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batchSize*b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// liveRows generates distinct synthetic records for the large-live-state
// bench: every token is an id-derived base-36 blob, so rows land as fresh
// singletons and the live tuple count tracks the rows ingested.
func liveRows(base, n int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		id := uint64(base + i)
		tok := func(k uint64) string {
			return "v" + strconv.FormatUint(id*2654435761+k*40503, 36)
		}
		rows[i] = []string{tok(1) + " " + tok(2) + " " + tok(3), tok(4), tok(5)}
	}
	return rows
}

// liveBenchSnaps caches the Save bytes of a matcher prepopulated to N live
// tuples, keyed by N. The benchmark framework re-invokes the benchmark body
// for calibration and iteration scaling, and at 1M live tuples the
// prepopulation dwarfs everything else — caching the serialized state means
// each `go test` process pays it once, and every further invocation is a
// LoadMatcher (seconds, and the loaded chunked state is identical bytes to
// the ingested one, which the layout property tests pin).
var liveBenchSnaps = struct {
	sync.Mutex
	raw map[int][]byte
}{raw: map[int][]byte{}}

func liveBenchOptions() repro.Options {
	opt := repro.DefaultOptions()
	opt.M = 0.5
	opt.Shards = 1
	opt.Encoder = embed.NewHashEncoder(embed.WithDim(64))
	opt.HNSW = hnsw.Config{M: 8, EfConstruction: 40, EfSearch: 40}
	return opt
}

// liveBenchMatcher returns a single-shard matcher with live prepopulated
// entities, building (and caching) it on first use per live size. The target
// is entities, not tuples: every ingested row appends exactly one entity
// (the epoch-hammer invariant), so prepopulation is exactly `live` rows and
// terminates deterministically. A tuple-count target does not — as the
// random-vector neighborhood densifies near a million rows, almost every new
// row absorbs into an existing tuple and the loop asymptotes below target.
// Absorptions still grow the chunked state (each appends an entity and a
// fresh centroid version into the HNSW link arena), so both chunk spines
// scale with `live` either way.
func liveBenchMatcher(b *testing.B, live int) *repro.Matcher {
	b.Helper()
	const prepopBatch = 8192
	liveBenchSnaps.Lock()
	defer liveBenchSnaps.Unlock()
	if raw, ok := liveBenchSnaps.raw[live]; ok {
		m, err := repro.LoadMatcher(bytes.NewReader(raw), liveBenchOptions())
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	m, err := repro.BuildMatcher(mustGen(b, "Geo", 0.3, 11), liveBenchOptions())
	if err != nil {
		b.Fatal(err)
	}
	for next := 0; m.Stats().Entities < live; {
		n := live - m.Stats().Entities
		if n > prepopBatch {
			n = prepopBatch
		}
		if _, err := m.AddRecords(liveRows(next, n)); err != nil {
			b.Fatal(err)
		}
		next += n
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		b.Fatal(err)
	}
	liveBenchSnaps.raw[live] = buf.Bytes()
	return m
}

// BenchmarkMatcherIngestLive measures per-batch ingest cost as a function of
// live state size: a single-shard matcher with a deliberately cheap config
// (dim-64 encoder, small HNSW) is prepopulated to N live entities, then
// timed 256-row batches ingest on top. Before the chunked tuple table and the
// chunk-level HNSW link snapshot, every batch copied O(live) state to publish
// its view, so per-batch cost grew linearly with N; now the publish step is
// O(batch dirty chunks) and "viewbuild-µs" — the mean per-shard view-build
// time over the timed batches, from the matcher's own
// multiem_view_build_duration_seconds histogram — should stay roughly flat
// from 10k to 1M. rows/s still drifts down with N, and the commit is not
// why: a search evaluates 1.6x the distances at 1M that it does at 10k, and
// each gathered row costs 2.9x as much once the node arena has left L2 and
// then the last-level cache. The three states' counters and the curve are in
// docs/BENCHMARKING.md ("The gather kernel").
func BenchmarkMatcherIngestLive(b *testing.B) {
	const batchSize = 256
	for _, live := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			if live > 100_000 && testing.Short() {
				b.Skip("million-entity prepopulation skipped in -short mode")
			}
			m := liveBenchMatcher(b, live)
			pre := m.ViewBuildDurations()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.AddRecords(liveRows(1<<30+i*batchSize, batchSize)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			post := m.ViewBuildDurations()
			b.ReportMetric(float64(batchSize*b.N)/b.Elapsed().Seconds(), "rows/s")
			if dc := post.Count - pre.Count; dc > 0 {
				b.ReportMetric(float64(post.Sum-pre.Sum)/float64(dc)/1e3, "viewbuild-µs")
			}
		})
	}
}

// BenchmarkMatcherIngestWAL measures the durability tax on ingest: the same
// 256-row AddRecords batches as BenchmarkMatcherIngest (4 shards) with the
// write-ahead log off, on with timer fsync, and on with fsync-per-batch.
// The off/interval gap is the framing+write cost; interval/always is the
// price of power-loss durability per acknowledged batch.
func BenchmarkMatcherIngestWAL(b *testing.B) {
	const batchSize = 256
	for _, mode := range []string{"off", "interval", "always"} {
		b.Run("wal="+mode, func(b *testing.B) {
			var m *repro.Matcher
			if mode == "off" {
				m, _ = benchMatcher(b, 4)
			} else {
				d := mustGen(b, "Geo", 0.3, 11)
				opt := repro.DefaultOptions()
				opt.M = 0.5
				opt.Shards = 4
				var err error
				m, err = repro.RecoverMatcher(
					repro.WALConfig{Dir: b.TempDir(), Fsync: mode}, opt,
					func() (*repro.Matcher, error) { return repro.BuildMatcher(d, opt) })
				if err != nil {
					b.Fatal(err)
				}
				defer m.CloseWAL()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.AddRecords(benchIngestRows(i, batchSize)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batchSize*b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkRecoverReplay measures replay by layout: a durability directory
// is written once per sub-benchmark — the base state at that shard count plus
// about 4 096 rows through AddRecords in batches of the given size — and
// replayed two ways. A recover op is RecoverMatcher over it: load the base
// file, replay the log, publish. A follower op is what a follower's catch-up
// costs: LoadMatcher of the same base, then one Replicator.Apply round over
// the whole log. rows/s is logged rows per second of the whole op; nearly all
// of it is replay, which redoes each batch from the decisions its record
// holds, one apply stream per shard — the same replay both ways, so the two
// legs should read alike. shards=1 is the reader overlapping one stream; more
// shards scale with min(shards, cores). skipped-% is the index nodes replay
// left unlinked, because a compaction later in the log discarded them, per
// hundred replayed rows: the graph work that linking each stream once, when
// the log ends, saves. It depends on the log alone.
func BenchmarkRecoverReplay(b *testing.B) {
	const totalRows = 4096
	for _, shards := range []int{1, 2, 4} {
		for _, batchRows := range []int{6, 16} {
			b.Run(fmt.Sprintf("shards=%d/rows=%d", shards, batchRows), func(b *testing.B) {
				batches := totalRows / batchRows
				m, _ := benchMatcher(b, shards)
				opt := repro.DefaultOptions()
				opt.M = 0.5
				dir := b.TempDir()
				basePath := filepath.Join(dir, "base.bin")
				if err := repro.SaveMatcherFile(m, basePath); err != nil {
					b.Fatal(err)
				}
				base := func() (*repro.Matcher, error) { return repro.LoadMatcherFile(basePath, opt) }
				cfg := repro.WALConfig{Dir: filepath.Join(dir, "wal"), Fsync: "off"}
				live, err := repro.RecoverMatcher(cfg, opt, base)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < batches; i++ {
					if _, err := live.AddRecords(benchIngestRows(i, batchRows)); err != nil {
						b.Fatal(err)
					}
				}
				if err := live.CloseWAL(); err != nil {
					b.Fatal(err)
				}
				want := live.Stats()
				// leg times replay, one op a call; what it returns is checked
				// against the live matcher off the clock.
				leg := func(b *testing.B, replay func() (*repro.Matcher, error)) {
					var skipped int64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						rec, err := replay()
						if err != nil {
							b.Fatal(err)
						}
						b.StopTimer()
						if got := rec.Stats(); got.Entities != want.Entities || got.Tuples != want.Tuples {
							b.Fatalf("replayed %d entities in %d tuples, want %d in %d", got.Entities, got.Tuples, want.Entities, want.Tuples)
						}
						skipped += rec.WALStats().ReplaySkippedLinks
						if err := rec.CloseWAL(); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					b.ReportMetric(float64(batches*batchRows*b.N)/b.Elapsed().Seconds(), "rows/s")
					b.ReportMetric(100*float64(skipped)/float64(batches*batchRows*b.N), "skipped-%")
				}
				b.Run("recover", func(b *testing.B) {
					leg(b, func() (*repro.Matcher, error) { return repro.RecoverMatcher(cfg, opt, base) })
				})
				b.Run("follower", func(b *testing.B) {
					l, err := wal.Open(multiem.LogDir(cfg.Dir), wal.Options{})
					if err != nil {
						b.Fatal(err)
					}
					defer l.Close()
					leg(b, func() (*repro.Matcher, error) {
						m, err := base()
						if err != nil {
							return nil, err
						}
						return m, multiem.NewReplicator(m, 0).Apply(l.Replay)
					})
				})
			})
		}
	}
}

// BenchmarkStateFile measures the matcher file both ways as a function of
// state size — one parameter varied over a range, the same two operations at
// every step: Music-20 built at three scales (about 5k, 10k and 20k entities
// at dim 256; the largest is the size of the repository benchmark's
// serve_read state), then LoadMatcher from memory and Save into a reused
// in-memory buffer. MB/s is file bytes per second of the whole call; B/op
// says how many times the state is held along the way — one read buffer plus
// the arenas for a load, nothing that grows with the state for a save.
func BenchmarkStateFile(b *testing.B) {
	opt := repro.DefaultOptions()
	opt.M = 0.5
	opt.Shards = 2
	for _, scale := range []float64{0.25, 0.5, 1} {
		m, err := repro.BuildMatcher(mustGen(b, "Music-20", scale, 13), opt)
		if err != nil {
			b.Fatal(err)
		}
		var file bytes.Buffer
		if err := m.Save(&file); err != nil {
			b.Fatal(err)
		}
		raw := file.Bytes()
		name := fmt.Sprintf("entities=%d", m.Stats().Entities)
		b.Run(name+"/LoadMatcher", func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := repro.LoadMatcher(bytes.NewReader(raw), opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/Save", func(b *testing.B) {
			var sink bytes.Buffer
			sink.Grow(len(raw))
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink.Reset()
				if err := m.Save(&sink); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMatcherMixed is the serving-traffic shape: many goroutines issuing
// Match with an AddRecords batch mixed in every 16th op, so reads contend
// with per-shard write locks.
func BenchmarkMatcherMixed(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			m, d := benchMatcher(b, shards)
			byID := d.EntityByID()
			res := m.Result()
			queries := make([][]string, 0, 16)
			for _, tuple := range res.Tuples[:min(len(res.Tuples), 16)] {
				queries = append(queries, byID[tuple[0]].Values)
			}
			var goroutineID int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// b.Error, not b.Fatal: FailNow must not be called from
				// RunParallel's worker goroutines.
				g := int(atomic.AddInt64(&goroutineID, 1))
				for i := 0; pb.Next(); i++ {
					if i%16 == 15 {
						if _, err := m.AddRecords(benchIngestRows(1000*g+i, 4)); err != nil {
							b.Error(err)
							return
						}
						continue
					}
					if _, err := m.Match(queries[(g+i)%len(queries)], 3); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkMatcherReadEpoch measures the lock-free read path: parallel Match
// (with Stats mixed in every 8th op) against a pinned epoch view on a 4-shard
// matcher, with no writers. Reads pin one immutable view per op — no
// per-shard locks — so this is the epoch-serving baseline that concurrent
// ingest and checkpoints must not degrade.
func BenchmarkMatcherReadEpoch(b *testing.B) {
	m, d := benchMatcher(b, 4)
	byID := d.EntityByID()
	res := m.Result()
	queries := make([][]string, 0, 16)
	for _, tuple := range res.Tuples[:min(len(res.Tuples), 16)] {
		queries = append(queries, byID[tuple[0]].Values)
	}
	var goroutineID int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := int(atomic.AddInt64(&goroutineID, 1))
		for i := 0; pb.Next(); i++ {
			if i%8 == 7 {
				_ = m.Stats()
				continue
			}
			if _, err := m.Match(queries[(g+i)%len(queries)], 3); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkSnapshotStall measures what a checkpoint costs ingest: 256-row
// AddRecords batches run while a goroutine checkpoints the matcher in a
// tight loop. One op is one batch; p99-ms is the 99th-percentile batch
// latency with checkpoints continuously in flight. Since Snapshot serializes
// a pinned view off the ingest lock, the stall bound is the O(shards) log
// rotation — not the serialization — so p99 should sit near the plain
// BenchmarkMatcherIngestWAL latency instead of growing with state size.
func BenchmarkSnapshotStall(b *testing.B) {
	const batchSize = 256
	d := mustGen(b, "Geo", 0.3, 11)
	opt := repro.DefaultOptions()
	opt.M = 0.5
	opt.Shards = 4
	m, err := repro.RecoverMatcher(
		repro.WALConfig{Dir: b.TempDir(), Fsync: "off"}, opt,
		func() (*repro.Matcher, error) { return repro.BuildMatcher(d, opt) })
	if err != nil {
		b.Fatal(err)
	}
	defer m.CloseWAL()

	stop := make(chan struct{})
	done := make(chan struct{})
	var snaps int64
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := m.Snapshot(); err != nil {
				b.Error(err)
				return
			}
			atomic.AddInt64(&snaps, 1)
		}
	}()

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := m.AddRecords(benchIngestRows(i, batchSize)); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	close(stop)
	<-done

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100] // index < len for every len >= 1
	b.ReportMetric(float64(p99.Microseconds())/1000, "p99-ms")
	b.ReportMetric(float64(batchSize*b.N)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(atomic.LoadInt64(&snaps))/b.Elapsed().Seconds(), "snaps/s")
}

// BenchmarkMatcherShardedMatch measures fan-out Match over 4 shards and
// reports parity against the single-shard matcher on the same queries.
func BenchmarkMatcherShardedMatch(b *testing.B) {
	m1, d := benchMatcher(b, 1)
	m4, _ := benchMatcher(b, 4)
	byID := d.EntityByID()
	res := m1.Result()
	queries := make([][]string, 0, 32)
	for _, tuple := range res.Tuples[:min(len(res.Tuples), 32)] {
		queries = append(queries, byID[tuple[0]].Values)
	}
	agree, total := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		c4, err := m4.Match(q, 5)
		if err != nil {
			b.Fatal(err)
		}
		c1, err := m1.Match(q, 5)
		if err != nil {
			b.Fatal(err)
		}
		total++
		if candidatesEqual(c1, c4) {
			agree++
		}
	}
	b.ReportMetric(float64(agree)/float64(total), "parity")
}

// candidatesEqual compares two candidate lists by entity membership and
// distance, ignoring the layout-dependent tuple IDs and order among
// equal-distance candidates.
func candidatesEqual(a, b []repro.Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(cs []repro.Candidate) []string {
		out := make([]string, len(cs))
		for i, c := range cs {
			out[i] = fmt.Sprintf("%v@%g", c.EntityIDs, c.Distance)
		}
		sort.Strings(out)
		return out
	}
	ka, kb := key(a), key(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// ---- Substrate micro-benches -------------------------------------------------

func BenchmarkSubstrate_Serialize(b *testing.B) {
	e := &table.Entity{Values: []string{"apple iphone 8 plus", "64gb", "silver", "489.00"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = table.Serialize(e, nil)
	}
}

func BenchmarkSubstrate_EvaluatePairF1(b *testing.B) {
	d := mustGen(b, "Music-20", 0.2, 1)
	pred := d.Truth[:len(d.Truth)/2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.PairMetrics(pred, d.Truth)
	}
}
