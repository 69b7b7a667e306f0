package multiem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"

	"repro/internal/datagen"
	"repro/internal/embed"
	"repro/internal/table"
	"repro/internal/vector"
)

// v4FixturePath is a version-4 matcher file written by the last commit whose
// Save wrote version 4 (Geo at 0.01, seed 5, dim 16, 2 shards, two absorb
// batches so stale index entries are present): the one v4 file in this
// repository that no code here produced.
const v4FixturePath = "testdata/matcher-v4-dim16.bin"

// v5FixturePath is the same state as a version-5 file, written by the last
// commit whose Save wrote version 5 (its index is hnsw version 2, with the
// layer hierarchy): what every snapshot and -load-index file that commit
// left on disk looks like.
const v5FixturePath = "testdata/matcher-v5-dim16.bin"

// dim16Opts are the options the fixture was written under.
func dim16Opts(shards int) Options {
	o := durOpts(shards)
	o.Encoder = embed.NewHashEncoder(embed.WithDim(16))
	return o
}

// v4Bytes renders m's state as a version-4 file: its Save bytes with the
// version field set back and each section's centroids block — tuple l's
// current index node vector at row l, between the tuples and the compaction
// count — put back in, and counted in the section length.
// TestV4FixtureRoundTrip holds it to the bytes a real v4 writer produced.
func v4Bytes(t *testing.T, m *Matcher) []byte {
	t.Helper()
	raw := saveBytes(t, m)
	shards := m.state.Load().shards
	hdr := len(raw)
	for _, sv := range shards {
		hdr -= 8 + sv.sectionSize()
	}
	out := append([]byte(nil), raw[:hdr]...)
	binary.LittleEndian.PutUint32(out[8:], matcherFormatV4)
	rest := raw[hdr:]
	for _, sv := range shards {
		sec := rest[8 : 8+sv.sectionSize()]
		rest = rest[8+len(sec):]
		cut := len(sec) - 8 - sv.index.SaveSize()
		var cents []byte
		for l := 0; l < sv.tuples.Len(); l++ {
			for _, f := range sv.centroidAt(l) {
				cents = binary.LittleEndian.AppendUint32(cents, math.Float32bits(f))
			}
		}
		out = binary.LittleEndian.AppendUint64(out, uint64(len(sec)+len(cents)))
		out = append(append(append(out, sec[:cut]...), cents...), sec[cut:]...)
	}
	return out
}

// staleMatcher builds a matcher and absorbs into it until stale index entries
// exist, so node pointers differ from local tuple indexes in what it saves.
func staleMatcher(t *testing.T, d *table.Dataset, opt Options) *Matcher {
	t.Helper()
	m, err := BuildMatcher(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 2; batch++ {
		if _, err := m.AddRecords(absorbRows(m, d, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if s := m.Stats(); s.IndexSize == s.Live {
		t.Fatal("matcher has no stale index entries")
	}
	return m
}

func mustLoad(t *testing.T, raw []byte, opt Options) *Matcher {
	t.Helper()
	m, err := LoadMatcher(bytes.NewReader(raw), opt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func readFixture(t testing.TB, path string, version uint32) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(raw[8:]); v != version {
		t.Fatalf("%s is version %d", path, v)
	}
	return raw
}

// withoutIndexes returns a matcher file without the bytes its embedded
// indexes decide: each index and each section's length.
func withoutIndexes(t *testing.T, raw []byte) []byte {
	t.Helper()
	var out []byte
	off := 0
	for _, span := range fileFields(t, raw).index {
		out = append(out, raw[off:span[0]]...)
		off = span[1]
	}
	return append(out, raw[off:]...)
}

// TestV4FixtureRoundTrip: the parent-written v4 file loads, what it loads to
// renders back to the v4 bytes outside the embedded indexes (so v4Bytes is
// the v4 format, not this commit's idea of it; the index inside is the
// version Save writes, which the loader takes in any matcher version), and it
// saves as a v6 file that is smaller by the centroids block and loads to the
// same state.
func TestV4FixtureRoundTrip(t *testing.T) {
	fixture := readFixture(t, v4FixturePath, matcherFormatV4)
	m := mustLoad(t, fixture, dim16Opts(2))
	v4 := v4Bytes(t, m)
	if got, want := withoutIndexes(t, v4), withoutIndexes(t, fixture); !bytes.Equal(got, want) {
		t.Fatalf("fixture re-rendered as v4 differs outside its indexes: %d vs %d bytes", len(got), len(want))
	}
	v6 := saveBytes(t, m)
	if v := binary.LittleEndian.Uint32(v6[8:]); v != matcherFormatVersion {
		t.Fatalf("Save wrote version %d", v)
	}
	if want := len(v4) - m.Stats().Tuples*16*4; len(v6) != want {
		t.Fatalf("v6 is %d bytes, want the v4 rendering's %d less one row a tuple = %d", len(v6), len(v4), want)
	}
	if again := saveBytes(t, mustLoad(t, v6, dim16Opts(2))); !bytes.Equal(again, v6) {
		t.Fatal("v6 does not save back to itself")
	}
}

// TestV5FixtureUpgrade: the parent-written v5 file — hnsw version 2 inside,
// like every snapshot on disk before version 6 — loads with each index node
// keeping exactly the file's layer-0 links, and to the state the v4 fixture
// (the same state) loads to. It saves as v6, which reloads to the same bytes,
// and the loaded file and its v6 re-save take the same later batches to the
// same results and the same state.
func TestV5FixtureUpgrade(t *testing.T) {
	fixture := readFixture(t, v5FixturePath, matcherFormatV5)
	m := mustLoad(t, fixture, dim16Opts(2))
	v6 := saveBytes(t, m)
	if v := binary.LittleEndian.Uint32(v6[8:]); v != matcherFormatVersion {
		t.Fatalf("Save wrote version %d", v)
	}
	as6 := binary.LittleEndian.AppendUint32(slices.Clone(fixture[:8]), matcherFormatVersion)
	if !bytes.Equal(withoutIndexes(t, v6), withoutIndexes(t, append(as6, fixture[12:]...))) {
		t.Fatal("the v6 file differs from the v5 one outside the version field and the indexes")
	}
	if got, want := fileFields(t, v6).links, fileFields(t, fixture).links; !reflect.DeepEqual(got, want) {
		t.Fatalf("index links after the upgrade differ from the file's layer-0 links:\n  got  %v\n  want %v", got, want)
	}
	if from4 := saveBytes(t, mustLoad(t, readFixture(t, v4FixturePath, matcherFormatV4), dim16Opts(2))); !bytes.Equal(from4, v6) {
		t.Fatal("the v4 and v5 fixtures of one state save different v6 files")
	}
	again := mustLoad(t, v6, dim16Opts(2))
	if !bytes.Equal(saveBytes(t, again), v6) {
		t.Fatal("v6 does not save back to itself")
	}
	d := mustGeo(t, 0.01, 5)
	for _, rows := range randomBatches(d, 8, 8, 23) {
		r5, err5 := m.AddRecords(rows)
		r6, err6 := again.AddRecords(rows)
		if err5 != nil || err6 != nil || !slices.Equal(r5, r6) {
			t.Fatalf("AddRecords diverges after the upgrade: %v / %v\n  v5 %+v\n  v6 %+v", err5, err6, r5, r6)
		}
	}
	assertMatchersIdentical(t, m, again, d)
}

// TestFormatEquivalence: a v4 file and the v6 file of one state load to
// matchers that cannot be told apart — Save bytes (v4 loads, v6 saves),
// stats, tuples, Match replies, and the results of the same later batches —
// on both kernel paths.
func TestFormatEquivalence(t *testing.T) {
	d := smallGeo(t)
	for _, mode := range []string{"scalar", "avx2"} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", mode, shards), func(t *testing.T) {
				prev := vector.Kernels()
				if err := vector.SetKernels(mode); err != nil {
					t.Skip(err)
				}
				defer vector.SetKernels(prev)
				m := staleMatcher(t, d, durOpts(shards))
				v4, v5 := v4Bytes(t, m), saveBytes(t, m)
				if len(v4) <= len(v5) {
					t.Fatalf("v4 is %d bytes, v5 %d", len(v4), len(v5))
				}
				from4, from5 := mustLoad(t, v4, durOpts(shards)), mustLoad(t, v5, durOpts(shards))
				if got := saveBytes(t, from4); !bytes.Equal(got, v5) {
					t.Fatal("loading v4 then Save does not yield the v5 bytes")
				}
				for _, rows := range randomBatches(d, 4, 8, 23) {
					r4, err4 := from4.AddRecords(rows)
					r5, err5 := from5.AddRecords(rows)
					if err4 != nil || err5 != nil || !slices.Equal(r4, r5) {
						t.Fatalf("AddRecords diverges after load: %v / %v\n  v4 %+v\n  v5 %+v", err4, err5, r4, r5)
					}
				}
				assertMatchersIdentical(t, from5, from4, d)
			})
		}
	}
}

// fileLayout is an independent reading of a matcher file.
type fileLayout struct {
	// bounds holds the offset at which every field starts (an array counts
	// as one field), counts the offsets of the counts and lengths among
	// them.
	bounds, counts []int
	// index holds the byte ranges the embedded indexes decide: each
	// section's length and each index.
	index [][2]int
	// links holds, per shard, each index node's links — for an hnsw
	// version-2 index its layer-0 list.
	links [][][]int32
	// vecs holds each section's entity embeddings' byte range.
	vecs [][2]int
}

// fileFields walks a well-formed matcher file of any version it reads, with
// an embedded index of either hnsw version, with nothing but encoding/binary:
// an independent reading of the format, which is what lets the hostile-input
// table below aim at each field instead of at random bytes.
func fileFields(t *testing.T, raw []byte) (f fileLayout) {
	t.Helper()
	off := 0
	field := func(n int) int {
		f.bounds = append(f.bounds, off)
		off += n
		return off - n
	}
	i32 := func() int { return int(int32(binary.LittleEndian.Uint32(raw[field(4):]))) }
	count := func() int {
		f.counts = append(f.counts, off)
		return i32()
	}
	// list reads a counted list of links from a block of capacity slots, or
	// of exactly as many slots as links when capacity is 0 (hnsw version 2).
	list := func(capacity int) []int32 {
		n := count()
		out := make([]int32, n)
		at := field(4 * max(n, capacity))
		for j := range out {
			out[j] = int32(binary.LittleEndian.Uint32(raw[at+4*j:]))
		}
		return out
	}
	field(8) // magic
	version := i32()
	dim := i32()
	field(8) // nextID
	nShards := count()
	for n := count(); n > 0; n-- {
		field(count()) // a schema string: its length, its bytes
	}
	for n := count(); n > 0; n-- {
		i32() // a selected attribute
	}
	for s := 0; s < nShards; s++ {
		f.counts = append(f.counts, off)
		f.index = append(f.index, [2]int{off, off + 8})
		field(8) // section length; its low word takes the flip
		nEnts := count()
		field(8 * nEnts)
		at := field(4 * dim * nEnts)
		f.vecs = append(f.vecs, [2]int{at, off})
		nTuples := count()
		for i := 0; i < nTuples; i++ {
			field(4 * count()) // members
			field(4)           // maxJoinDist
		}
		if version == matcherFormatV4 {
			field(4 * dim * nTuples) // centroids
		}
		field(8)          // compactions
		start := field(8) // index magic
		ixVersion, m := i32(), i32()
		i32() // efConstruction
		i32() // efSearch
		if ixVersion == 2 {
			i32()    // metric
			field(8) // seed
		}
		i32() // dim
		nodes := count()
		if ixVersion == 2 {
			i32() // entry
			i32() // maxL
		}
		field(8 * nodes)
		var shardLinks [][]int32
		if ixVersion == 2 {
			levels := raw[field(4*nodes):]
			for i := 0; i < nodes; i++ {
				shardLinks = append(shardLinks, list(0))
				for l := int32(binary.LittleEndian.Uint32(levels[4*i:])); l > 0; l-- {
					list(0) // an upper-layer list
				}
			}
		} else {
			for i := 0; i < nodes; i++ {
				shardLinks = append(shardLinks, list(2*m))
			}
		}
		f.links = append(f.links, shardLinks)
		field(4 * dim * nodes)
		f.index = append(f.index, [2]int{start, off})
	}
	if off != len(raw) {
		t.Fatalf("walked %d bytes of a %d-byte file", off, len(raw))
	}
	return f
}

// TestLoadMatcherHostileInput pins the loader's contract for input it cannot
// trust, for every version it reads (v5 through the parent-written fixture,
// whose indexes are hnsw version 2): cut anywhere — at every field boundary
// of a small file, every 4 KiB of a large one — or with any count replaced
// by MaxInt32, LoadMatcher returns ErrCorruptState, never panics, and
// allocates at most 3 × the input + 64 KiB: one copy of the input (the
// in-memory reader is copied once, like a file is read once), at most the
// undamaged shards decoded beside it, and a constant for the matcher and
// per-shard shells. No count in the file adds to that.
//
// Memory keeps an entity row's nonzeros at 6 B each, 1.5 × the file's 4, so
// the worst file is one whose rows have no zero at all: the "full rows" leg,
// a dim-256 file whose every zero coordinate is rewritten to −0 (a nonzero
// to the store: its bits are not zero). That file also loads whole, saves
// back to itself, and stays within the same bound.
func TestLoadMatcherHostileInput(t *testing.T) {
	small := staleMatcher(t, mustGeo(t, 0.01, 5), dim16Opts(2))
	large := staleMatcher(t, smallGeo(t), durOpts(2))
	check := func(t *testing.T, name string, raw []byte, opt Options) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := LoadMatcher(bytes.NewReader(raw), opt)
		runtime.ReadMemStats(&after)
		if m != nil || !errors.Is(err, ErrCorruptState) {
			t.Fatalf("%s: loaded=%v err=%v, want ErrCorruptState", name, m != nil, err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(3*len(raw)+64<<10); got > limit {
			t.Fatalf("%s: %d input bytes, %d allocated (limit %d)", name, len(raw), got, limit)
		}
	}
	full := fullRowFile(t)
	t.Run("v6/full rows loads", func(t *testing.T) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := LoadMatcher(bytes.NewReader(full), durOpts(2))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got, limit := after.TotalAlloc-before.TotalAlloc, uint64(3*len(full)+64<<10)
		t.Logf("whole file of %d bytes: %d allocated (limit %d)", len(full), got, limit)
		if got > limit {
			t.Fatalf("loading %d bytes allocated %d (limit %d)", len(full), got, limit)
		}
		if !bytes.Equal(saveBytes(t, m), full) {
			t.Fatal("the full-row file does not save back to itself")
		}
	})
	for _, tc := range []struct {
		name string
		raw  []byte
		opt  Options
		step int // 0: every field boundary
	}{
		{"v6/fields", saveBytes(t, small), dim16Opts(2), 0},
		{"v5/fields", readFixture(t, v5FixturePath, matcherFormatV5), dim16Opts(2), 0},
		{"v4/fields", v4Bytes(t, small), dim16Opts(2), 0},
		{"v6/4KiB", saveBytes(t, large), durOpts(2), 4 << 10},
		{"v4/4KiB", v4Bytes(t, large), durOpts(2), 4 << 10},
		{"v6/full rows", full, durOpts(2), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.step > 0 {
				for cut := 0; cut < len(tc.raw); cut += tc.step {
					check(t, "cut", tc.raw[:cut], tc.opt)
				}
				return
			}
			f := fileFields(t, tc.raw)
			for _, cut := range f.bounds {
				check(t, "cut", tc.raw[:cut], tc.opt)
			}
			for _, off := range f.counts {
				bad := append([]byte(nil), tc.raw...)
				binary.LittleEndian.PutUint32(bad[off:], math.MaxInt32)
				check(t, "count", bad, tc.opt)
			}
			t.Logf("%d bytes: %d field boundaries, %d counts", len(tc.raw), len(f.bounds), len(f.counts))
		})
	}
}

// fullRowFile saves a small two-shard dim-256 matcher and rewrites every
// zero coordinate of its entity rows to −0, so no row has a zero to drop.
func fullRowFile(t *testing.T) []byte {
	raw := saveBytes(t, staleMatcher(t, mustGeo(t, 0.01, 5), durOpts(2)))
	for _, r := range fileFields(t, raw).vecs {
		for at := r[0]; at < r[1]; at += 4 {
			if binary.LittleEndian.Uint32(raw[at:]) == 0 {
				binary.LittleEndian.PutUint32(raw[at:], 0x80000000)
			}
		}
	}
	return raw
}

func mustGeo(t *testing.T, scale float64, seed int64) *table.Dataset {
	t.Helper()
	d, err := datagen.GenerateByName("Geo", scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestLoadMatcherFromAnyReader: a file (sized by Stat), an in-memory reader
// (sized by Len) and a reader that is neither and delivers one byte a call
// load the same matcher.
func TestLoadMatcherFromAnyReader(t *testing.T) {
	d := smallGeo(t)
	raw := saveBytes(t, staleMatcher(t, d, durOpts(2)))
	path := filepath.Join(t.TempDir(), "m.bin")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name, r := range map[string]io.Reader{
		"file":     f,
		"bytes":    bytes.NewReader(raw),
		"one byte": iotest.OneByteReader(bytes.NewReader(raw)),
	} {
		m, err := LoadMatcher(r, durOpts(2))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(saveBytes(t, m), raw) {
			t.Fatalf("%s: loaded matcher saves different bytes", name)
		}
		if m.loadBytes != int64(len(raw)) || m.loadTime <= 0 {
			t.Fatalf("%s: load recorded as %d bytes in %v", name, m.loadBytes, m.loadTime)
		}
	}
}

// TestSaveAllocatesConstant: Save and Snapshot stream the state — no section
// buffer, no staging copy of an arena — so what they allocate does not grow
// with it: the same small bound holds for a state and for one several times
// its size.
func TestSaveAllocatesConstant(t *testing.T) {
	// Save: one bufio.Writer. Snapshot also rotates the log and lists the
	// directory to retire what the checkpoint covers.
	const saveLimit, snapLimit = 16 << 10, 128 << 10
	d := smallGeo(t)
	dir := t.TempDir()
	m, err := RecoverMatcher(WALConfig{Dir: dir, Fsync: "off"}, durOpts(2), func() (*Matcher, error) {
		return BuildMatcher(d, durOpts(2))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.CloseWAL()
	measure := func(f func() error) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var sizes []int
	for round := 0; round < 2; round++ {
		var n countingWriter
		save := measure(func() error { return m.Save(&n) })
		snap := measure(func() error { _, err := m.Snapshot(); return err })
		t.Logf("state of %d bytes: Save allocated %d, Snapshot %d", n, save, snap)
		if save > saveLimit || snap > snapLimit {
			t.Fatalf("limits are %d for Save and %d for Snapshot", saveLimit, snapLimit)
		}
		sizes = append(sizes, int(n))
		for _, rows := range randomBatches(d, 40, 64, int64(31+round)) {
			if _, err := m.AddRecords(rows); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sizes[1] < 2*sizes[0] {
		t.Fatalf("state grew %d -> %d bytes between rounds; the test wants at least 2x", sizes[0], sizes[1])
	}
}

type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
