package repro_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/multiem"
	"repro/internal/vector"
)

// resultHash is the SHA-256 of what a pipeline run decides: each tuple's
// length and entity IDs, each confidence's float64 bits, and the selected
// attributes, all as little-endian 64-bit words.
func resultHash(res *repro.Result) string {
	h := sha256.New()
	word := func(x uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, x)) }
	word(uint64(len(res.Tuples)))
	for _, tu := range res.Tuples {
		word(uint64(len(tu)))
		for _, id := range tu {
			word(uint64(id))
		}
	}
	for _, c := range res.Confidences {
		word(math.Float64bits(c))
	}
	word(uint64(len(res.SelectedAttrs)))
	for _, a := range res.SelectedAttrs {
		word(uint64(a))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pipelineGolden holds resultHash for each dataset of TestPipelineGolden:
// one hash, which every merge backend, sequential and parallel, must give.
// The exact join scores its pairs through the bitmask gather the HNSW leg
// scores with, so on these datasets, where both legs find the same pairs,
// the confidences too have one set of bits.
var pipelineGolden = map[string]string{
	"Geo":      "ea92423bbf8dc356d5e26b47a3d7144c25a5cfe5bbdf900f0f908a878bf50f21",
	"Music-20": "a061cb8cc287f08a8f8f7330b38a7f402147f7ea6ed4fdfea55fa6cc9d39428d",
}

// TestPipelineGolden pins the pipeline's Result bits — tuples, confidences
// and selected attributes — on two reduced-scale datasets, under every merge
// backend, sequential and parallel, on every kernel path the CPU has. Every
// path and every backend returns the same bits, so one hash per dataset
// answers them all.
func TestPipelineGolden(t *testing.T) {
	cfgs := []experiments.DatasetConfig{benchConfig("Geo", 0.1), benchConfig("Music-20", 0.05)}
	data := make([]*repro.Dataset, len(cfgs))
	for x, cfg := range cfgs {
		d, err := repro.GenerateDataset(cfg.Name, cfg.Scale, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		data[x] = d
	}
	backends := []struct {
		name    string
		backend multiem.ANNBackend
	}{{"auto", multiem.BackendAuto}, {"brute", multiem.BackendBrute}, {"hnsw", multiem.BackendHNSW}}
	for _, mode := range []string{"scalar", "avx2", "avx512"} {
		t.Run(mode, func(t *testing.T) {
			vector.ForceKernels(t, mode)
			for x, cfg := range cfgs {
				for _, b := range backends {
					for _, parallel := range []bool{false, true} {
						opt := cfg.MultiEMOptions()
						opt.Backend, opt.Parallel = b.backend, parallel
						res, err := repro.Match(data[x], opt)
						if err != nil {
							t.Fatal(err)
						}
						key := fmt.Sprintf("%s/%s/parallel=%v", cfg.Name, b.name, parallel)
						if got := resultHash(res); got != pipelineGolden[cfg.Name] {
							t.Errorf("%s %s: Result hash %s, want %s", mode, key, got, pipelineGolden[cfg.Name])
						}
					}
				}
			}
		})
	}
}
