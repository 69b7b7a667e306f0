package hnsw

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/vector"
)

// TestSaveBytesGolden pins the graph an index builds — which links every node
// keeps, at which cached distances, and what a search returns — to hashes, for
// the two metrics the matcher and the pruning phase run, on both kernel paths.
// The history builds, saves, loads, adds on top of the loaded index and saves
// again, so a change to any distance the index computes (in the walk, in
// selectHeuristic, or in Load's link-distance rebuild) fails here first.
func TestSaveBytesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes were taken on amd64; other compilers may fuse multiply-adds")
	}
	golden := map[string]map[vector.Metric]string{
		"scalar": {
			vector.CosineUnit: "794e60d2a2a838330ee58965afaf4c0b978151be87755d9e16fcfa1b9cf7c845",
			vector.Euclidean:  "566db8f4c85d13f084ce762a991e961f9c27741f32e9c645b387993c37cdcb73",
		},
		"avx2": {
			vector.CosineUnit: "c7e91a0d886b4b8e40557e8db65b99b0518db24d3070ffa5d87a35d2c2ba060d",
			vector.Euclidean:  "4ebe9f4b5b30624ef1af2f67be523024cf23510cde5632306a48c656930415ad",
		},
	}
	for mode, want := range golden {
		t.Run(mode, func(t *testing.T) {
			prev := vector.Kernels()
			if err := vector.SetKernels(mode); err != nil {
				t.Skip(err)
			}
			defer vector.SetKernels(prev)
			for metric, hash := range want {
				if got := goldenHistory(t, metric); got != hash {
					t.Errorf("%v: index state moved under %s kernels:\n  got  %s\n  want %s", metric, mode, got, hash)
				}
			}
		})
	}
}

// goldenHistory runs the pinned history for one metric and returns the
// SHA-256 of both Saves and every search reply.
func goldenHistory(t *testing.T, metric vector.Metric) string {
	t.Helper()
	const dim = 19 // the kernels' scalar tail runs
	vecs := randomUnitVecs(600, dim, 11)
	if metric == vector.Euclidean {
		for _, v := range vecs {
			vector.Scale(v, 1+v[0]) // off the unit sphere
		}
	}
	cfg := Config{M: 6, EfConstruction: 40, EfSearch: 30, Metric: metric, Seed: 4}
	h := sha256.New()
	ix := buildIndex(t, vecs[:400], cfg)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	h.Write(buf.Bytes())
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 400; i < len(vecs); i++ {
		if err := loaded.Add(i*7, vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	buf.Reset()
	if err := loaded.Save(&buf); err != nil {
		t.Fatal(err)
	}
	h.Write(buf.Bytes())
	for _, q := range randomUnitVecs(20, dim, 12) {
		fmt.Fprintf(h, "%v\n", loaded.Search(q, 5, 0))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
