package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/multiem"
)

// Figure5Row is the per-module running time of MultiEM on one dataset:
// S (attribute selection), R (representation), M / M(p) (merging), and
// P / P(p) (pruning) — the paper's Figure 5 bars.
type Figure5Row struct {
	Dataset              string
	S, R, M, Mp, P, Pp   time.Duration
	Total, TotalParallel time.Duration
}

// RunFigure5 instruments the pipeline per phase, sequential and parallel.
func RunFigure5(w io.Writer, cfgs []DatasetConfig) ([]Figure5Row, error) {
	var out []Figure5Row
	var rows [][]string
	for _, cfg := range cfgs {
		d, err := datagen.GenerateByName(cfg.Name, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		_, seq, err := RunMethod("MultiEM", cfg, d, nil)
		if err != nil {
			return nil, err
		}
		_, par, err := RunMethod("MultiEM (parallel)", cfg, d, nil)
		if err != nil {
			return nil, err
		}
		row := Figure5Row{
			Dataset: cfg.Name,
			S:       seq.Timings.Select,
			R:       seq.Timings.Represent,
			M:       seq.Timings.Merge,
			Mp:      par.Timings.Merge,
			P:       seq.Timings.Prune,
			Pp:      par.Timings.Prune,
			Total:   seq.Timings.Total, TotalParallel: par.Timings.Total,
		}
		out = append(out, row)
		rows = append(rows, []string{
			cfg.Name,
			fmtDuration(row.S), fmtDuration(row.R),
			fmtDuration(row.M), fmtDuration(row.Mp),
			fmtDuration(row.P), fmtDuration(row.Pp),
		})
	}
	renderTable(w, "Figure 5: running time of each key module of MultiEM",
		[]string{"Dataset", "S", "R", "M", "M(p)", "P", "P(p)"}, rows)
	return out, nil
}

// SweepPoint is one point of a sensitivity curve.
type SweepPoint struct {
	Dataset string
	Param   float64
	F1      float64
	PairF1  float64
	// NormTime is the running time normalized by the sweep's first point
	// (the paper normalizes per dataset in Figures 6d/6f).
	NormTime float64
}

// Sweep is one Figure 6 sensitivity curve: a MultiEM hyperparameter, the
// paper's grid for it, and how a grid value sets it.
type Sweep struct {
	// Figure is the subfigure id; 6c and 6e also give 6d's and 6f's
	// running times.
	Figure string
	// Param names the hyperparameter.
	Param string
	Grid  []float64
	Set   func(*multiem.Options, float64)
}

// Sweeps lists the Figure 6 sweeps in the paper's order.
var Sweeps = []Sweep{
	{"6a", "gamma", []float64{0.80, 0.85, 0.90, 0.95}, func(o *multiem.Options, v float64) { o.Gamma = float32(v) }},
	{"6b", "seed", []float64{0, 1, 2, 3}, func(o *multiem.Options, v float64) { o.Seed = int64(v) }},
	{"6c", "m", []float64{0.05, 0.2, 0.35, 0.5}, func(o *multiem.Options, v float64) { o.M = float32(v) }},
	{"6e", "eps", []float64{0.7, 0.8, 0.9, 1.0}, func(o *multiem.Options, v float64) { o.Eps = float32(v) }},
}

// RunFigure6 runs the Sweeps entry whose Param is which on the given
// datasets.
func RunFigure6(w io.Writer, cfgs []DatasetConfig, which string) ([]SweepPoint, error) {
	k := slices.IndexFunc(Sweeps, func(s Sweep) bool { return s.Param == which })
	if k < 0 {
		return nil, fmt.Errorf("experiments: unknown sweep %q", which)
	}
	sweep := Sweeps[k]
	var out []SweepPoint
	var rows [][]string
	for _, cfg := range cfgs {
		d, err := datagen.GenerateByName(cfg.Name, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		var base time.Duration
		for i, v := range sweep.Grid {
			opt := cfg.MultiEMOptions()
			sweep.Set(&opt, v)
			res, err := multiem.Run(d, opt)
			if err != nil {
				return nil, err
			}
			rep := eval.Evaluate(res.Tuples, d.Truth)
			if i == 0 {
				base = res.Timings.Total
			}
			norm := 1.0
			if base > 0 {
				norm = float64(res.Timings.Total) / float64(base)
			}
			p := SweepPoint{Dataset: cfg.Name, Param: v, F1: rep.Tuple.F1, PairF1: rep.Pair.F1, NormTime: norm}
			out = append(out, p)
			rows = append(rows, []string{
				cfg.Name, fmt.Sprintf("%g", v), pct(p.F1), pct(p.PairF1), fmt.Sprintf("%.2f", p.NormTime),
			})
		}
	}
	renderTable(w, "Figure 6: sensitivity to "+which,
		[]string{"Dataset", which, "F1", "pair-F1", "norm-time"}, rows)
	return out, nil
}
