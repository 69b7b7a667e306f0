// Command experiments regenerates the paper's evaluation tables and
// figures on the synthetic benchmarks.
//
// Usage:
//
//	experiments -table 3            # dataset statistics (Table III)
//	experiments -table 456          # Tables IV, V, VI in one pass
//	experiments -table 7            # selected attributes (Table VII)
//	experiments -figure 5           # per-module running time
//	experiments -figure 6a|6b|6c|6e # sensitivity sweeps
//	experiments -all                # everything
//
// Flags -datasets and -scale restrict/override the default configuration.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		tableSel  = flag.String("table", "", "table to regenerate: 3, 456, or 7")
		figureSel = flag.String("figure", "", "figure to regenerate: 5, 6a, 6b, 6c, 6e")
		all       = flag.Bool("all", false, "run every table and figure")
		datasets  = flag.String("datasets", "", "comma-separated dataset subset (default: all six)")
		scale     = flag.Float64("scale", 0, "override generation scale for every dataset (0 = per-dataset default)")
		methods   = flag.String("methods", "", "comma-separated method subset for -table 456")
	)
	flag.Parse()

	cfgs := experiments.DefaultConfigs()
	if *datasets != "" {
		want := map[string]bool{}
		for _, n := range strings.Split(*datasets, ",") {
			want[strings.TrimSpace(n)] = true
		}
		var filtered []experiments.DatasetConfig
		for _, c := range cfgs {
			if want[c.Name] {
				filtered = append(filtered, c)
			}
		}
		if len(filtered) == 0 {
			fail(fmt.Errorf("no configured dataset matches %q", *datasets))
		}
		cfgs = filtered
	}
	if *scale > 0 {
		for i := range cfgs {
			cfgs[i].Scale = *scale
		}
	}
	var methodList []string
	if *methods != "" {
		for _, m := range strings.Split(*methods, ",") {
			methodList = append(methodList, strings.TrimSpace(m))
		}
	}

	w := os.Stdout
	run := func(name string, f func() error) {
		fmt.Fprintf(w, "== %s ==\n", name)
		if err := f(); err != nil {
			fail(err)
		}
	}

	any := false
	if *all || *tableSel == "3" {
		any = true
		run("Table III", func() error { _, err := experiments.RunTable3(w, cfgs); return err })
	}
	if *all || *tableSel == "456" {
		any = true
		run("Tables IV-VI", func() error { _, err := experiments.RunTables456(w, cfgs, methodList); return err })
	}
	if *all || *tableSel == "7" {
		any = true
		run("Table VII", func() error { _, err := experiments.RunTable7(w, cfgs); return err })
	}
	if *all || *figureSel == "5" {
		any = true
		run("Figure 5", func() error { _, err := experiments.RunFigure5(w, cfgs); return err })
	}
	for _, s := range experiments.Sweeps {
		if *all || *figureSel == s.Figure {
			any = true
			run("Figure "+s.Figure, func() error { _, err := experiments.RunFigure6(w, cfgs, s.Param); return err })
		}
	}
	if !any {
		fmt.Fprintln(os.Stderr, "experiments: nothing selected; use -table, -figure, or -all")
		flag.Usage()
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
