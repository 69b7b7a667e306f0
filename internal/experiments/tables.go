package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/datagen"
	"repro/internal/multiem"
)

// DatasetStats is one dataset's row of Table III.
type DatasetStats struct {
	Name     string
	Sources  int
	Attrs    int
	Entities int
	Tuples   int
	Pairs    int
}

// RunTable3 builds all datasets at their configured scale and reports
// statistics.
func RunTable3(w io.Writer, cfgs []DatasetConfig) ([]DatasetStats, error) {
	var stats []DatasetStats
	var rows [][]string
	for _, cfg := range cfgs {
		d, err := datagen.GenerateByName(cfg.Name, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		s := DatasetStats{
			Name:     d.Name,
			Sources:  d.NumSources(),
			Attrs:    d.Schema().Len(),
			Entities: d.NumEntities(),
			Tuples:   len(d.Truth),
			Pairs:    d.NumTruthPairs(),
		}
		stats = append(stats, s)
		rows = append(rows, []string{
			s.Name, fmt.Sprint(s.Sources), fmt.Sprint(s.Attrs),
			fmt.Sprint(s.Entities), fmt.Sprint(s.Tuples), fmt.Sprint(s.Pairs),
			fmt.Sprintf("%.2f", cfg.Scale),
		})
	}
	renderTable(w, "Table III: statistics of the generated datasets",
		[]string{"Name", "Srcs", "Attrs", "Entities", "Tuples", "Pairs", "Scale"}, rows)
	return stats, nil
}

// RunTables456 executes every method on every configured dataset once and
// prints matching performance (Table IV), running time (Table V) and memory
// usage (Table VI). Results are returned for tests.
func RunTables456(w io.Writer, cfgs []DatasetConfig, methods []string) (map[string][]MethodResult, error) {
	all := make(map[string][]MethodResult, len(cfgs))
	for _, cfg := range cfgs {
		fmt.Fprintf(w, "running %s (scale %.2f)...\n", cfg.Name, cfg.Scale)
		res, err := RunDataset(cfg, methods)
		if err != nil {
			return nil, err
		}
		all[cfg.Name] = res
	}
	if methods == nil {
		methods = Methods
	}

	cell := func(r *MethodResult, f func(MethodResult) string) string {
		if r == nil {
			return "?"
		}
		if r.Skipped != "" {
			return r.Skipped
		}
		return f(*r)
	}
	lookup := func(ds, method string) *MethodResult {
		for i := range all[ds] {
			if all[ds][i].Method == method {
				return &all[ds][i]
			}
		}
		return nil
	}

	// Table IV.
	header := []string{"Method"}
	for _, cfg := range cfgs {
		header = append(header, cfg.Name+" P", "R", "F1", "p-F1")
	}
	var rows [][]string
	for _, m := range methods {
		row := []string{m}
		for _, cfg := range cfgs {
			r := lookup(cfg.Name, m)
			row = append(row,
				cell(r, func(x MethodResult) string { return pct(x.Report.Tuple.Precision) }),
				cell(r, func(x MethodResult) string { return pct(x.Report.Tuple.Recall) }),
				cell(r, func(x MethodResult) string { return pct(x.Report.Tuple.F1) }),
				cell(r, func(x MethodResult) string { return pct(x.Report.Pair.F1) }),
			)
		}
		rows = append(rows, row)
	}
	renderTable(w, "Table IV: matching performance of all methods", header, rows)

	// Table V.
	header = []string{"Method"}
	for _, cfg := range cfgs {
		header = append(header, cfg.Name)
	}
	rows = rows[:0]
	for _, m := range methods {
		row := []string{m}
		for _, cfg := range cfgs {
			r := lookup(cfg.Name, m)
			row = append(row, cell(r, func(x MethodResult) string { return fmtDuration(x.Runtime) }))
		}
		rows = append(rows, row)
	}
	renderTable(w, "Table V: running time comparison", header, rows)

	// Table VI.
	rows = rows[:0]
	for _, m := range methods {
		row := []string{m}
		for _, cfg := range cfgs {
			r := lookup(cfg.Name, m)
			row = append(row, cell(r, func(x MethodResult) string { return fmtMem(x.PeakMem) }))
		}
		rows = append(rows, row)
	}
	renderTable(w, "Table VI: memory usage comparison (peak heap growth)", header, rows)
	return all, nil
}

// Table7Row is one dataset's attribute-selection outcome.
type Table7Row struct {
	Dataset  string
	All      []string
	Selected []string
	Scores   []multiem.AttrScore
}

// RunTable7 runs Algorithm 1 on every configured dataset and reports the
// selected attributes (paper Table VII).
func RunTable7(w io.Writer, cfgs []DatasetConfig) ([]Table7Row, error) {
	var out []Table7Row
	var rows [][]string
	for _, cfg := range cfgs {
		d, err := datagen.GenerateByName(cfg.Name, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		opt := cfg.MultiEMOptions()
		scores, sel := multiem.SelectAttributes(d, opt)
		row := Table7Row{Dataset: cfg.Name, All: d.Schema().Attrs, Scores: scores}
		for _, j := range sel {
			row.Selected = append(row.Selected, d.Schema().Attrs[j])
		}
		out = append(out, row)
		rows = append(rows, []string{cfg.Name, strings.Join(row.All, ", "), strings.Join(row.Selected, ", ")})
	}
	renderTable(w, "Table VII: automatically selected attributes",
		[]string{"Dataset", "All attributes", "Selected attributes"}, rows)
	return out, nil
}
