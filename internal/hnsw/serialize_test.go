package hnsw

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/binio"
	"repro/internal/vector"
)

func randomUnitVecs(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	vecs := make([][]float32, n)
	for i := range vecs {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		vecs[i] = vector.Normalize(v)
	}
	return vecs
}

func buildIndex(t *testing.T, vecs [][]float32, cfg Config) *Index {
	t.Helper()
	ix := New(len(vecs[0]), cfg)
	for i, v := range vecs {
		if err := ix.Add(i*7, v); err != nil { // non-contiguous external ids
			t.Fatalf("Add: %v", err)
		}
	}
	return ix
}

// TestSaveLoadRoundTrip checks that a loaded index answers every query with
// exactly the same neighbours and distances as the index that was saved.
func TestSaveLoadRoundTrip(t *testing.T) {
	const dim = 32
	vecs := randomUnitVecs(500, dim, 1)
	cfg := Config{M: 8, EfConstruction: 50, EfSearch: 40, Seed: 3}
	ix := buildIndex(t, vecs, cfg)

	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if got := ix.SaveSize(); got != buf.Len() {
		t.Fatalf("SaveSize=%d, Save wrote %d bytes", got, buf.Len())
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	if loaded.Len() != ix.Len() {
		t.Fatalf("loaded Len=%d, want %d", loaded.Len(), ix.Len())
	}
	if loaded.Dim() != ix.Dim() {
		t.Fatalf("loaded Dim=%d, want %d", loaded.Dim(), ix.Dim())
	}
	if loaded.Config() != ix.Config() {
		t.Fatalf("loaded Config=%+v, want %+v", loaded.Config(), ix.Config())
	}

	queries := randomUnitVecs(100, dim, 2)
	for qi, q := range queries {
		want := ix.Search(q, 10, 0)
		got := loaded.Search(q, 10, 0)
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d results, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d result %d: got %+v, want %+v", qi, i, got[i], want[i])
			}
		}
	}
}

// TestSaveLoadThenAdd checks that inserting after Load reproduces the index
// that would exist had it never been saved: the level-sampling stream resumes
// where the original build left off.
func TestSaveLoadThenAdd(t *testing.T) {
	const dim = 16
	all := randomUnitVecs(300, dim, 5)
	cfg := Config{M: 6, EfConstruction: 40, Seed: 9}

	// Continuous build over all vectors.
	full := buildIndex(t, all, cfg)

	// Build over the first half, save, load, add the second half.
	half := New(dim, cfg)
	for i := 0; i < 150; i++ {
		if err := half.Add(i*7, all[i]); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	var buf bytes.Buffer
	if err := half.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	resumed, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for i := 150; i < 300; i++ {
		if err := resumed.Add(i*7, all[i]); err != nil {
			t.Fatalf("Add after Load: %v", err)
		}
	}

	queries := randomUnitVecs(50, dim, 6)
	for qi, q := range queries {
		want := full.Search(q, 5, 0)
		got := resumed.Search(q, 5, 0)
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d results, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d result %d: got %+v, want %+v", qi, i, got[i], want[i])
			}
		}
	}
}

func TestSaveLoadEmpty(t *testing.T) {
	ix := New(8, Config{})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if got := ix.SaveSize(); got != buf.Len() {
		t.Fatalf("SaveSize=%d, Save wrote %d bytes", got, buf.Len())
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Len() != 0 {
		t.Fatalf("loaded empty index has Len=%d", loaded.Len())
	}
	if res := loaded.Search(make([]float32, 8), 3, 0); res != nil {
		t.Fatalf("Search on empty loaded index returned %v", res)
	}
	if err := loaded.Add(1, make([]float32, 8)); err != nil {
		t.Fatalf("Add to loaded empty index: %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":     "",
		"bad magic": "NOTANIDXFILE....",
		"truncated": "HNSWIDX\n\x01\x00",
	}
	for name, in := range cases {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Load accepted invalid input", name)
		}
	}
}

// Header layout: magic 8, version 4, config 24 (M 4, efc 4, efs 4, metric 4,
// seed 8), dim 4 @36, count 4 @40, entry 4 @44, maxL 4 @48.
func TestLoadRejectsCorruptHeaderFields(t *testing.T) {
	ix := buildIndex(t, randomUnitVecs(20, 4, 1), Config{M: 4})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	patch := func(offset int, v uint32) []byte {
		b := append([]byte(nil), buf.Bytes()...)
		b[offset] = byte(v)
		b[offset+1] = byte(v >> 8)
		b[offset+2] = byte(v >> 16)
		b[offset+3] = byte(v >> 24)
		return b
	}
	cases := map[string][]byte{
		// A huge count must error, not allocate gigabytes.
		"huge count":    patch(40, 1<<30),
		"bad entry":     patch(44, 1<<20),
		"maxL too high": patch(48, 3_000),
		"huge M":        patch(12, 1<<20),
		// The metric field is always 2: 0 was a non-unit cosine index, 1 a
		// euclidean one, and this build reads neither.
		"metric 0": patch(24, 0),
		"metric 1": patch(24, 1),
		"metric 3": patch(24, 3),
	}
	for name, b := range cases {
		if _, err := Load(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: Load accepted a corrupt file", name)
		}
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	ix := buildIndex(t, randomUnitVecs(10, 4, 1), Config{M: 4})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	b := buf.Bytes()
	b[8] = 99 // bump the version field
	if _, err := Load(bytes.NewReader(b)); err == nil {
		t.Fatal("Load accepted an unsupported format version")
	}
}

// A short file whose header promises a large-but-individually-plausible node
// count must fail with a clean error at the first missing byte — allocation
// must track bytes actually read, not the header's promise.
func TestLoadShortFileWithLargeCountFails(t *testing.T) {
	ix := buildIndex(t, randomUnitVecs(20, 4, 1), Config{M: 4})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	b := append([]byte(nil), buf.Bytes()...)
	// count field at offset 40: claim 2^20 nodes (inside maxSaneCount) in a
	// file that only carries 20.
	count := uint32(1 << 20)
	b[40], b[41], b[42], b[43] = byte(count), byte(count>>8), byte(count>>16), byte(count>>24)
	if _, err := Load(bytes.NewReader(b)); err == nil {
		t.Fatal("Load accepted a short file with an inflated node count")
	}
}

// A file from a previous format version must fail with the named
// ErrFormatVersion — distinguishable from corruption — not be misparsed
// into garbage.
func TestLoadOldVersionFailsWithNamedError(t *testing.T) {
	ix := buildIndex(t, randomUnitVecs(10, 4, 1), Config{M: 4})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	for _, old := range []byte{1, 0} {
		b := append([]byte(nil), buf.Bytes()...)
		b[8] = old // version field, little-endian low byte
		_, err := Load(bytes.NewReader(b))
		if err == nil {
			t.Fatalf("Load accepted version %d", old)
		}
		if !errors.Is(err, ErrFormatVersion) {
			t.Fatalf("version-%d error %v does not wrap ErrFormatVersion", old, err)
		}
	}
}

// TestDecodeStopsAtIndexEnd: Decode consumes one index and leaves what
// follows it to the caller, which is how a container format embeds one.
func TestDecodeStopsAtIndexEnd(t *testing.T) {
	ix := buildIndex(t, randomUnitVecs(40, 8, 1), Config{M: 4})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("trailer")
	rd := binio.NewReader(buf.Bytes())
	if _, err := Decode(rd); err != nil {
		t.Fatal(err)
	}
	if got := string(rd.Next(rd.Len())); got != "trailer" {
		t.Fatalf("Decode left %q behind the index", got)
	}
}
