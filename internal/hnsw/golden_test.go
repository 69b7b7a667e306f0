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
// keeps, and what a search returns — to one hash, which both kernel paths
// must give (the portable kernels sum in the assembly's order).
// The history builds, saves, loads, adds on top of the loaded index and saves
// again, so a change to any distance the index computes (in the walk, in
// selectHeuristic, or in linkBack's shrink after a load) fails here first.
//
// The hash was re-taken when the format went from version 3 to 4, whose rows
// are bitmask rows instead of dense ones. The history's two files, each
// rendered back as version 3 with its rows dense, gave the version-3 hash
// then pinned, so no link, reply or other byte moved.
func TestSaveBytesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the hash was taken on amd64; no test runs the arm64 bits")
	}
	const want = "e82a5b500a234e07fdfb7abd504c3c50c4744c24bcbceb0185a9e8d1e9fafb02"
	for _, mode := range []string{"scalar", "avx2"} {
		t.Run(mode, func(t *testing.T) {
			vector.ForceKernels(t, mode)
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
	cfg := Config{M: 6, EfConstruction: 40, EfSearch: 30}
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
