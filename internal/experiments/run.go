package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/baselines"
	"repro/internal/datagen"
	"repro/internal/embed"
	"repro/internal/eval"
	"repro/internal/multiem"
	"repro/internal/table"
)

// MethodResult is one (method, dataset) cell across Tables IV, V, and VI.
type MethodResult struct {
	Method  string
	Dataset string
	// Skipped explains infeasibility ("\" or "-" cells); when set, the
	// other fields are meaningless.
	Skipped string
	Report  eval.Report
	Runtime time.Duration
	// PeakMem is the peak heap growth observed during the run, in bytes.
	PeakMem uint64
	// Phases is populated for MultiEM rows (Figure 5).
	Phases multiem.PhaseTimings
	// SelectedAttrs is populated for MultiEM rows (Table VII).
	SelectedAttrs []string
	// AttrScores is populated for MultiEM rows.
	AttrScores []multiem.AttrScore
}

// measure runs f while sampling heap usage, returning elapsed time and peak
// heap growth over the pre-run baseline.
func measure(f func() error) (time.Duration, uint64, error) {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	var peak atomic.Uint64
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		ticker := time.NewTicker(5 * time.Millisecond)
		defer ticker.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak.Load() {
					peak.Store(ms.HeapAlloc)
				}
			}
		}
	}()
	start := time.Now()
	err := f()
	elapsed := time.Since(start)
	close(done)
	<-sampled
	var final runtime.MemStats
	runtime.ReadMemStats(&final)
	if final.HeapAlloc > peak.Load() {
		peak.Store(final.HeapAlloc)
	}
	growth := uint64(0)
	if p := peak.Load(); p > base.HeapAlloc {
		growth = p - base.HeapAlloc
	}
	return elapsed, growth, err
}

// Methods enumerates the Table IV/V/VI method rows in paper order.
var Methods = []string{
	"PromptEM (pw)", "Ditto (pw)", "AutoFJ (pw)",
	"PromptEM (c)", "Ditto (c)", "AutoFJ (c)",
	"ALMSER-GB", "MSCD-HAC",
	"MultiEM", "MultiEM (parallel)",
	"MultiEM w/o EER", "MultiEM w/o DP",
}

// trainFrac is the share of truth pairs a supervised baseline may label:
// the PLM matchers' training split and ALMSER's active-learning budget.
const trainFrac = 0.05

// RunMethod runs one paper method on d, untimed, and returns its predicted
// tuples; for a MultiEM row it also returns the pipeline's result. method is
// a name from Methods and d is cfg's generated dataset. ctx is the
// baselines' shared embedding context over d; MultiEM rows do not read it,
// so it may be nil for them. This is the one place that knows how each
// method of Tables IV-VI runs: cmd/experiments times it through RunDataset,
// and the paper benches call it directly.
func RunMethod(method string, cfg DatasetConfig, d *table.Dataset, ctx *baselines.Context) ([][]int, *multiem.Result, error) {
	opt := cfg.MultiEMOptions()
	switch method {
	case "MultiEM":
	case "MultiEM (parallel)":
		opt.Parallel = true
	case "MultiEM w/o EER":
		opt.DisableAttrSelect = true
	case "MultiEM w/o DP":
		opt.DisablePruning = true
	case "MSCD-HAC":
		tuples, err := baselines.NewMSCDHAC().Run(ctx)
		return tuples, nil, err
	case "ALMSER-GB":
		budget := max(int(float64(d.NumTruthPairs())*trainFrac), 10)
		tuples, err := baselines.NewALMSER(budget).Run(ctx)
		return tuples, nil, err
	case "AutoFJ (pw)", "AutoFJ (c)":
		return twoTable(method, ctx, baselines.NewAutoFJ()), nil, nil
	case "Ditto (pw)", "Ditto (c)":
		return twoTable(method, ctx, trainPLM(baselines.VariantDitto, cfg.Seed, d, ctx)), nil, nil
	case "PromptEM (pw)", "PromptEM (c)":
		return twoTable(method, ctx, trainPLM(baselines.VariantPromptEM, cfg.Seed, d, ctx)), nil, nil
	default:
		return nil, nil, fmt.Errorf("unknown method %q", method)
	}
	res, err := multiem.Run(d, opt)
	if err != nil {
		return nil, nil, err
	}
	return res.Tuples, res, nil
}

// trainPLM trains a PLM matcher on a split drawn with the dataset's seed.
func trainPLM(v baselines.PLMVariant, seed int64, d *table.Dataset, ctx *baselines.Context) *baselines.PLMMatcher {
	m := baselines.NewPLMMatcher(v)
	m.Train(ctx, baselines.MakeSplit(d, trainFrac, 3, seed))
	return m
}

// twoTable extends a two-table matcher to all tables, pairwise for a
// "(pw)" row and as a chain for a "(c)" row (Fig. 2a/2c).
func twoTable(method string, ctx *baselines.Context, m baselines.TwoTableMatcher) [][]int {
	if strings.HasSuffix(method, "(pw)") {
		return baselines.PairsToTuples(baselines.PairwiseMatch(ctx, m))
	}
	return baselines.PairsToTuples(baselines.ChainMatch(ctx, m))
}

// gate returns a baseline's feasibility limit on the full-scale entity count
// and the cell it shows beyond it. Any other method gets limit 0: it is
// never gated and needs no baseline context.
func gate(method string) (limit int, mark string) {
	switch method {
	case "MSCD-HAC":
		return GateMSCDHAC, `\`
	case "ALMSER-GB":
		return GateALMSER, `\`
	case "AutoFJ (pw)", "AutoFJ (c)":
		return GateAutoFJ, "-"
	case "PromptEM (pw)", "PromptEM (c)", "Ditto (pw)", "Ditto (c)":
		return GatePLM, `\`
	}
	return 0, ""
}

// sharedContext is the baselines' one embedding context per dataset, built
// with enc on first use, and what building it took.
type sharedContext struct {
	enc  embed.Encoder
	ctx  *baselines.Context
	took time.Duration
}

func (s *sharedContext) get(d *table.Dataset) (*baselines.Context, time.Duration, error) {
	if s.ctx == nil {
		start := time.Now()
		ctx, err := baselines.NewContext(d, s.enc)
		if err != nil {
			return nil, 0, err
		}
		s.ctx, s.took = ctx, time.Since(start)
	}
	return s.ctx, s.took, nil
}

// RunDataset generates the dataset for cfg and evaluates every requested
// method on it. methods nil means all Methods.
func RunDataset(cfg DatasetConfig, methods []string) ([]MethodResult, error) {
	d, err := datagen.GenerateByName(cfg.Name, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if methods == nil {
		methods = Methods
	}
	var out []MethodResult
	shared := sharedContext{enc: embed.NewHashEncoder()}
	for _, m := range methods {
		r, err := runMethod(m, cfg, d, &shared)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on %s: %w", m, cfg.Name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// runMethod is one Tables IV-VI cell: the feasibility gate, then RunMethod
// under measure.
func runMethod(method string, cfg DatasetConfig, d *table.Dataset, shared *sharedContext) (MethodResult, error) {
	res := MethodResult{Method: method, Dataset: cfg.Name}
	// Feasibility is a property of the real (full-scale) dataset: a method
	// that cannot complete the paper's Music-2000 must show "\" even when
	// this run generates Music-2000 at reduced scale.
	limit, mark := gate(method)
	if limit > 0 && int(float64(d.NumEntities())/cfg.Scale) > limit {
		res.Skipped = mark
		return res, nil
	}
	var ctx *baselines.Context
	var ctxTime time.Duration
	if limit > 0 {
		var err error
		if ctx, ctxTime, err = shared.get(d); err != nil {
			return res, err
		}
	}

	var tuples [][]int
	var result *multiem.Result
	elapsed, peak, err := measure(func() error {
		var e error
		tuples, result, e = RunMethod(method, cfg, d, ctx)
		return e
	})
	var tooLarge *baselines.ErrTooLarge
	if errors.As(err, &tooLarge) {
		res.Skipped = `\`
		return res, nil
	}
	if err != nil {
		return res, err
	}
	// Representation time is shared across baselines but belongs to each
	// method's end-to-end cost.
	res.Runtime, res.PeakMem = elapsed+ctxTime, peak
	res.Report = eval.Evaluate(tuples, d.Truth)
	if result != nil {
		res.Phases = result.Timings
		res.SelectedAttrs = result.SelectedNames
		res.AttrScores = result.AttrScores
	}
	return res, nil
}
