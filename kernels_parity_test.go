// Kernel-path parity on the Table-4 pipelines: the SIMD dispatch layer must
// not change which tuples the reproduction produces (the portable kernels
// return the assembly's bits, so nothing downstream can differ).
package repro_test

import (
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/multiem"
	"repro/internal/table"
	"repro/internal/vector"
)

// TestTable4KernelParity runs a reduced-scale Table-4 pipeline per dataset
// under the scalar and AVX2 kernel paths and requires identical tuple
// membership, once per merge backend: forced HNSW rides the single-pair and
// batch kernels, the exact join (what the default plans at these sizes)
// rides the tile kernels. The flips are sequential (no pipeline is live
// across one), matching the SetKernels contract.
func TestTable4KernelParity(t *testing.T) {
	if vector.Kernels() == "scalar" {
		t.Skip("CPU lacks AVX2+FMA (or VECTOR_KERNELS forced scalar)")
	}
	restore := func() {
		if err := vector.SetKernels("auto"); err != nil {
			t.Fatal(err)
		}
	}
	defer restore()

	cfgs := []experiments.DatasetConfig{benchConfig("Geo", 0.1), benchConfig("Music-20", 0.05)}
	backends := map[string]multiem.ANNBackend{"hnsw": multiem.BackendHNSW, "exact": multiem.BackendBrute}
	for _, cfg := range cfgs {
		for name, backend := range backends {
			t.Run(cfg.Name+"/"+name, func(t *testing.T) {
				d, err := repro.GenerateDataset(cfg.Name, cfg.Scale, cfg.Seed)
				if err != nil {
					t.Fatal(err)
				}
				run := func(mode string) map[string]bool {
					if err := vector.SetKernels(mode); err != nil {
						t.Fatal(err)
					}
					opt := cfg.MultiEMOptions()
					opt.Backend = backend
					res, err := repro.Match(d, opt)
					if err != nil {
						t.Fatalf("%s: %v", mode, err)
					}
					keys := make(map[string]bool, len(res.Tuples))
					for _, tu := range res.Tuples {
						keys[table.TupleKey(tu)] = true
					}
					return keys
				}
				scalar := run("scalar")
				simd := run("avx2")
				restore()
				if len(scalar) != len(simd) {
					t.Fatalf("tuple counts diverge: scalar %d vs avx2 %d", len(scalar), len(simd))
				}
				for k := range scalar {
					if !simd[k] {
						t.Fatalf("tuple %s exists on scalar path but not avx2", k)
					}
				}
			})
		}
	}
}
