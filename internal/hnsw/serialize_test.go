package hnsw

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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

func buildIndex(t testing.TB, vecs [][]float32, cfg Config) *Index {
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
	cfg := Config{M: 8, EfConstruction: 50, EfSearch: 40}
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
	if loaded.cfg != ix.cfg {
		t.Fatalf("loaded Config=%+v, want %+v", loaded.cfg, ix.cfg)
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
// that would exist had it never been saved, to the byte: the file holds
// everything the graph's construction reads. The loaded index knows no
// block's split, so its shrinks re-run the heuristic where the continuous
// build derives them.
func TestSaveLoadThenAdd(t *testing.T) {
	const dim = 16
	all := randomUnitVecs(300, dim, 5)
	cfg := Config{M: 6, EfConstruction: 40}

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

	var fullBytes, resumedBytes bytes.Buffer
	if err := full.Save(&fullBytes); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Save(&resumedBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fullBytes.Bytes(), resumedBytes.Bytes()) {
		t.Fatal("the index resumed after Load saves other bytes than the continuous build")
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

// Header layout: magic 8, version 4 @8, M 4 @12, efConstruction 4 @16,
// efSearch 4 @20, dim 4 @24, count 4 @28.
func TestLoadRejectsCorruptHeaderFields(t *testing.T) {
	ix := buildIndex(t, randomUnitVecs(20, 4, 1), Config{M: 4})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	patch := func(offset int, v uint32) []byte {
		b := slices.Clone(buf.Bytes())
		binary.LittleEndian.PutUint32(b[offset:], v)
		return b
	}
	cases := map[string][]byte{
		// A huge count must error, not allocate gigabytes.
		"huge count":    patch(28, 1<<30),
		"huge M":        patch(12, 1<<20),
		"zero dim":      patch(24, 0),
		"zero efSearch": patch(20, 0),
	}
	for name, b := range cases {
		if _, err := Load(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Load returned %v, want ErrCorrupt", name, err)
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
	// count field at offset 28: claim 2^20 nodes (inside maxSaneCount) in a
	// file that only carries 20.
	count := uint32(1 << 20)
	b[28], b[29], b[30], b[31] = byte(count), byte(count>>8), byte(count>>16), byte(count>>24)
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
	for _, old := range []byte{3, 1, 0} {
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

// TestDecodeStopsAtIndexEnd: DecodeOn consumes one index and leaves what
// follows it to the caller, which is how a container format embeds one.
func TestDecodeStopsAtIndexEnd(t *testing.T) {
	ix := buildIndex(t, randomUnitVecs(40, 8, 1), Config{M: 4})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("trailer")
	rd := binio.NewReader(buf.Bytes())
	if _, err := DecodeOn(rd, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := string(rd.Next(rd.Len())); got != "trailer" {
		t.Fatalf("DecodeOn left %q behind the index", got)
	}
}

// v2File hand-builds a version-2 file of n nodes of dim 1 at the given M,
// every one at level 0 with no links: the smallest file a header with a
// large M can claim n nodes in.
func v2File(m, n int) []byte {
	le := binary.LittleEndian
	b := append([]byte(nil), magic[:]...)
	for _, v := range []int{2, m, 200, 64, 2} { // version, M, efC, efS, metric
		b = le.AppendUint32(b, uint32(v))
	}
	b = le.AppendUint64(b, 1) // seed
	for _, v := range []int{1, n, 0, 0} {
		b = le.AppendUint32(b, uint32(v)) // dim, count, entry, maxL
	}
	for i := 0; i < n; i++ {
		b = le.AppendUint64(b, uint64(i))
	}
	b = append(b, make([]byte, 8*n)...) // levels, then one zero link count each
	for i := 0; i < n; i++ {
		b = le.AppendUint32(b, math.Float32bits(1))
	}
	return b
}

// TestDecodeAllocBounded holds Load to the loader contract in
// docs/OPERATIONS.md — a hostile file costs at most about 3× its size — at
// the largest M a header may declare, where a node's link block is 32 KiB.
// The version-2 file is one that cost over 2 000× its size when every node
// got its block whatever the file held: 3 000 nodes of dim 1 and no links.
// No version-2 file is read any more, and this one is refused as such; the
// version-4 file, whose link section is that arena, loads.
func TestDecodeAllocBounded(t *testing.T) {
	ix := New(1, Config{M: maxSaneM})
	for i := 0; i < 12; i++ {
		if err := ix.Add(i, []float32{float32(1 - 2*(i%2))}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		raw  []byte
		want error
	}{
		{"v2", v2File(maxSaneM, 3000), ErrFormatVersion},
		{"v4", savedBytes(t, ix), nil},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(bytes.NewReader(tc.raw))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, tc.want) || tc.want == nil && err != nil {
			t.Fatalf("%s: Load returned %v, want %v", tc.name, err, tc.want)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(3*len(tc.raw)+64<<10); got > limit {
			t.Fatalf("%s: loading %d bytes allocated %d (limit %d)", tc.name, len(tc.raw), got, limit)
		}
	}
}

// TestDecodeRejectsMalformedRows: a row Save could not have written — a mask
// bit at or past the dimension (dim 16 leaves 48 such bits a row), a value
// whose bits are 0, values cut short — or a node count the bytes cannot back
// is ErrCorrupt, within the allocation bound. Each bad row is otherwise
// well formed: a decoder without the check would load it.
func TestDecodeRejectsMalformedRows(t *testing.T) {
	const dim = 16
	raw := savedBytes(t, buildIndex(t, randomUnitVecs(20, dim, 1), Config{M: 4}))
	// The rows are the file's last 20 × (8 + 4·16) bytes: every coordinate
	// of a random unit vector is set.
	first := len(raw) - 20*(8+4*dim)
	mask, vals := raw[first:first+8], raw[first+8:first+8+4*dim]
	withFirst := func(row ...[]byte) []byte {
		return slices.Concat(raw[:first], slices.Concat(row...), raw[first+8+4*dim:])
	}
	cases := map[string][]byte{
		"value of bits 0":  withFirst(mask, []byte{0, 0, 0, 0}, vals[4:]),
		"values cut short": raw[:len(raw)-4*dim],
		"node count":       slices.Clone(raw),
	}
	binary.LittleEndian.PutUint32(cases["node count"][28:], 1<<20)
	for c := dim; c < 64; c++ {
		bad := slices.Clone(mask)
		bad[c/8] |= 1 << (c % 8)
		cases[fmt.Sprintf("mask bit %d", c)] = withFirst(bad, vals, []byte{0, 0, 0, 0x3f})
	}
	for name, b := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(bytes.NewReader(b))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Load returned %v, want ErrCorrupt", name, err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(3*len(b)+64<<10); got > limit {
			t.Errorf("%s: loading %d bytes allocated %d (limit %d)", name, len(b), got, limit)
		}
	}
}

// FuzzDecodeIndex: DecodeOn reads the index embedded in every matcher file a
// follower fetches, and here it is fuzzed on its own, where every mutation
// lands in its fields. On arbitrary bytes it must not panic, must fail only
// with ErrCorrupt or ErrFormatVersion, and must not allocate more than 3×
// the input and a constant. What it accepts must save back to the bytes it
// read.
func FuzzDecodeIndex(f *testing.F) {
	f.Add(savedBytes(f, New(8, Config{})))
	one := New(2, Config{M: 2, EfSearch: 5})
	if err := one.Add(5, []float32{1, 0}); err != nil {
		f.Fatal(err)
	}
	f.Add(savedBytes(f, one))
	f.Add(savedBytes(f, buildIndex(f, randomUnitVecs(40, 8, 1), Config{M: 4})))
	// A version-2 header, which is refused.
	f.Add(v2File(4, 40))
	// One wide row: the vector arena's chunk may hold only what the file
	// fills, or it alone would outgrow the allocation bound.
	f.Add(savedBytes(f, buildIndex(f, randomUnitVecs(1, 1024, 2), Config{M: 1})))
	// A version-3 header, which is refused: the format a version-7 matcher
	// file embedded, version 4 with each row dense.
	v3 := savedBytes(f, buildIndex(f, randomUnitVecs(40, 8, 1), Config{M: 4}))
	binary.LittleEndian.PutUint32(v3[8:], 3)
	f.Add(v3)

	f.Fuzz(func(t *testing.T, raw []byte) {
		rd := binio.NewReader(raw)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix, err := DecodeOn(rd, nil, nil)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(3*len(raw)+64<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(raw), got, limit)
		}
		if err != nil {
			if ix != nil || !(errors.Is(err, ErrCorrupt) || errors.Is(err, ErrFormatVersion)) {
				t.Fatalf("untyped failure: %v", err)
			}
			return
		}
		ix.Search(make([]float32, ix.Dim()), 3, 0)
		read, saved := raw[:len(raw)-rd.Len()], savedBytes(t, ix)
		if !bytes.Equal(read, saved) {
			t.Fatalf("accepted %d bytes that save back as %d different ones", len(read), len(saved))
		}
	})
}
