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
// keeps, and what a search returns — to hashes, on both kernel paths.
// The history builds, saves, loads, adds on top of the loaded index and saves
// again, so a change to any distance the index computes (in the walk, in
// selectHeuristic, or in linkBack's shrink after a load) fails here first.
func TestSaveBytesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes were taken on amd64; other compilers may fuse multiply-adds")
	}
	golden := map[string]string{
		"scalar": "794e60d2a2a838330ee58965afaf4c0b978151be87755d9e16fcfa1b9cf7c845",
		"avx2":   "c7e91a0d886b4b8e40557e8db65b99b0518db24d3070ffa5d87a35d2c2ba060d",
	}
	for mode, want := range golden {
		t.Run(mode, func(t *testing.T) {
			prev := vector.Kernels()
			if err := vector.SetKernels(mode); err != nil {
				t.Skip(err)
			}
			defer vector.SetKernels(prev)
			if got := goldenHistory(t); got != want {
				t.Errorf("index state moved under %s kernels:\n  got  %s\n  want %s", mode, got, want)
			}
		})
	}
}

// goldenHistory runs the pinned history and returns the SHA-256 of both Saves
// and every search reply.
func goldenHistory(t *testing.T) string {
	t.Helper()
	const dim = 19 // the kernels' scalar tail runs
	vecs := randomUnitVecs(600, dim, 11)
	cfg := Config{M: 6, EfConstruction: 40, EfSearch: 30, Seed: 4}
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
