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
	"runtime"
	"slices"
	"testing"
	"testing/iotest"

	"repro/internal/datagen"
	"repro/internal/embed"
	"repro/internal/table"
	"repro/internal/vector"
)

// v6FixturePath is a version-6 matcher file written by the last commit whose
// Save wrote version 6 (Geo at 0.01, seed 5, dim 16, 2 shards, two absorb
// batches so stale index entries are present, M 0.5): what every snapshot
// and -load-index file that commit left on disk looks like.
const v6FixturePath = "testdata/matcher-v6-dim16.bin"

// dim16Opts are the options the fixture was written under.
func dim16Opts(shards int) Options {
	o := durOpts(shards)
	o.Encoder = embed.NewHashEncoder(embed.WithDim(16))
	return o
}

// v6Bytes renders a version-7 file as version 6: the version field set back
// and the fields version 7 added to the header, M and the probes, cut out.
// TestFormatEquivalence and TestV6FixtureUpgrade hold it to the bytes a real
// v6 writer produced.
func v6Bytes(raw []byte) []byte {
	dim := int(binary.LittleEndian.Uint32(raw[12:]))
	out := binary.LittleEndian.AppendUint32(slices.Clone(raw[:8]), matcherFormatV6)
	out = append(out, raw[12:16]...)
	return append(out, raw[16+4+4*len(probeTexts)*dim:]...)
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

// TestV6FixtureUpgrade: the parent-written v6 file loads under the caller's
// M and encoder, saves as a v7 file that holds both and is the fixture
// outside the header fields v7 added, and that file loads under any
// Options.M to the M it holds and saves back to itself (TestFormatEquivalence
// holds the two versions of one state to the same later decisions). An
// Options.M out of range fails a v6 load as the caller's error.
func TestV6FixtureUpgrade(t *testing.T) {
	fixture := readFixture(t, v6FixturePath, matcherFormatV6)
	m := mustLoad(t, fixture, dim16Opts(2))
	v7 := saveBytes(t, m)
	if v := binary.LittleEndian.Uint32(v7[8:]); v != matcherFormatVersion {
		t.Fatalf("Save wrote version %d", v)
	}
	if !bytes.Equal(v6Bytes(v7), fixture) {
		t.Fatal("the v7 file differs from the v6 one outside the version field and the new header fields")
	}
	other := dim16Opts(2)
	other.M = float32(math.NaN())
	if _, err := LoadMatcher(bytes.NewReader(fixture), other); err == nil || errors.Is(err, ErrCorruptState) {
		t.Fatalf("a v6 file under M NaN: %v, want an options error, not ErrCorruptState", err)
	}
	other.M = 0.05
	again := mustLoad(t, v7, other)
	if again.M() != 0.5 || !bytes.Equal(saveBytes(t, again), v7) {
		t.Fatalf("the v7 file loads under M %v, or does not save back to itself", again.M())
	}
}

// TestFormatEquivalence: the v6 and the v7 file of one state load to
// matchers that cannot be told apart — Save bytes (v6 loads, v7 saves),
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
				v7 := saveBytes(t, m)
				v6 := v6Bytes(v7)
				from6, from7 := mustLoad(t, v6, durOpts(shards)), mustLoad(t, v7, durOpts(shards))
				if got := saveBytes(t, from6); !bytes.Equal(got, v7) {
					t.Fatal("loading v6 then Save does not yield the v7 bytes")
				}
				for _, rows := range randomBatches(d, 4, 8, 23) {
					r6, err6 := from6.AddRecords(rows)
					r7, err7 := from7.AddRecords(rows)
					if err6 != nil || err7 != nil || !slices.Equal(r6, r7) {
						t.Fatalf("AddRecords diverges after load: %v / %v\n  v6 %+v\n  v7 %+v", err6, err7, r6, r7)
					}
				}
				assertMatchersIdentical(t, from7, from6, d)
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
	// m and probes are the offsets of a version-7 header's M and probes.
	m, probes int
	// vecs holds each section's entity embeddings' byte range.
	vecs [][2]int
}

// fileFields walks a well-formed matcher file of either version it reads
// with nothing but encoding/binary: an independent reading of the format,
// which is what lets the hostile-input table below aim at each field instead
// of at random bytes.
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
	field(8) // magic
	version := i32()
	dim := i32()
	if version == matcherFormatVersion {
		f.m = field(4)
		f.probes = field(4 * len(probeTexts) * dim)
	}
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
		field(8) // section length; its low word takes the flip
		nEnts := count()
		field(8 * nEnts)
		at := field(4 * dim * nEnts)
		f.vecs = append(f.vecs, [2]int{at, off})
		for n := count(); n > 0; n-- {
			field(4 * count()) // members
			field(4)           // maxJoinDist
		}
		field(8) // compactions
		field(8) // index magic
		i32()    // index version
		m := i32()
		i32() // efConstruction
		i32() // efSearch
		i32() // dim
		nodes := count()
		field(8 * nodes)
		for i := 0; i < nodes; i++ {
			count()          // the node's link count
			field(4 * 2 * m) // its link slots
		}
		field(4 * dim * nodes)
	}
	if off != len(raw) {
		t.Fatalf("walked %d bytes of a %d-byte file", off, len(raw))
	}
	return f
}

// TestLoadMatcherHostileInput pins the loader's contract for input it cannot
// trust, for both versions it reads (v6 through the parent-written fixture
// and a v7 file rendered back): cut anywhere — at every field boundary of a
// small file, every 4 KiB of a large one — or with any count replaced by
// MaxInt32, LoadMatcher returns ErrCorruptState, never panics, and allocates
// at most 3 × the input + 64 KiB: one copy of the input (the in-memory
// reader is copied once, like a file is read once), at most the undamaged
// shards decoded beside it, and a constant for the matcher and per-shard
// shells. No count in the file adds to that. The header fields v7 added are
// held to the same bound: an M that is no cosine distance is ErrCorruptState,
// a probe row that is not the encoder's embedding ErrEncoderMismatch.
//
// Memory keeps an entity row's nonzeros at 6 B each, 1.5 × the file's 4, so
// the worst file is one whose rows have no zero at all: the "full rows" legs,
// a dim-256 file whose every zero coordinate is rewritten to −0 (a nonzero
// to the store: its bits are not zero). That file also loads whole, in
// either version, saves as itself, and stays within the same bound.
func TestLoadMatcherHostileInput(t *testing.T) {
	small := staleMatcher(t, mustGeo(t, 0.01, 5), dim16Opts(2))
	large := staleMatcher(t, smallGeo(t), durOpts(2))
	// check loads raw and wants err to be want (nil: the load succeeds).
	check := func(t *testing.T, name string, raw []byte, opt Options, want error) *Matcher {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := LoadMatcher(bytes.NewReader(raw), opt)
		runtime.ReadMemStats(&after)
		if (m == nil) != (want != nil) || !errors.Is(err, want) {
			t.Fatalf("%s: loaded=%v err=%v, want %v", name, m != nil, err, want)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(3*len(raw)+64<<10); got > limit {
			t.Fatalf("%s: %d input bytes, %d allocated (limit %d)", name, len(raw), got, limit)
		}
		return m
	}
	full := fullRowFile(t)
	for version, raw := range map[string][]byte{"v6": v6Bytes(full), "v7": full} {
		t.Run(version+"/full rows loads", func(t *testing.T) {
			if m := check(t, "whole file", raw, durOpts(2), nil); !bytes.Equal(saveBytes(t, m), full) {
				t.Fatal("the full-row file does not save as the v7 full-row file")
			}
		})
	}
	t.Run("v7/header", func(t *testing.T) {
		raw := saveBytes(t, small)
		f := fileFields(t, raw)
		for _, bits := range []uint32{math.Float32bits(float32(math.NaN())), math.Float32bits(-0.01), math.Float32bits(2.01), math.Float32bits(float32(math.Inf(1)))} {
			bad := slices.Clone(raw)
			binary.LittleEndian.PutUint32(bad[f.m:], bits)
			check(t, "M", bad, dim16Opts(2), ErrCorruptState)
		}
		for i := range probeTexts {
			bad := slices.Clone(raw)
			for at := f.probes + 4*16*i; at < f.probes+4*16*(i+1); at += 4 {
				bad[at+3] ^= 0x80 // probe i's row, negated
			}
			check(t, fmt.Sprintf("probe %d", i), bad, dim16Opts(2), ErrEncoderMismatch)
		}
	})
	for _, tc := range []struct {
		name string
		raw  []byte
		opt  Options
		step int // 0: every field boundary
	}{
		{"v7/fields", saveBytes(t, small), dim16Opts(2), 0},
		{"v6/fields", readFixture(t, v6FixturePath, matcherFormatV6), dim16Opts(2), 0},
		{"v7/4KiB", saveBytes(t, large), durOpts(2), 4 << 10},
		{"v6/4KiB", v6Bytes(saveBytes(t, large)), durOpts(2), 4 << 10},
		{"v7/full rows", full, durOpts(2), 0},
		{"v6/full rows", v6Bytes(full), durOpts(2), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.step > 0 {
				for cut := 0; cut < len(tc.raw); cut += tc.step {
					check(t, "cut", tc.raw[:cut], tc.opt, ErrCorruptState)
				}
				return
			}
			f := fileFields(t, tc.raw)
			for _, cut := range f.bounds {
				check(t, "cut", tc.raw[:cut], tc.opt, ErrCorruptState)
			}
			for _, off := range f.counts {
				bad := append([]byte(nil), tc.raw...)
				binary.LittleEndian.PutUint32(bad[off:], math.MaxInt32)
				check(t, "count", bad, tc.opt, ErrCorruptState)
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
