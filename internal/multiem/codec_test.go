package multiem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
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

// v7FixturePath is a version-7 matcher file written by the last commit whose
// Save wrote version 7 (Geo at 0.01, seed 5, dim 16, 2 shards, two absorb
// batches so stale index entries are present, M 0.5): what every snapshot
// and -load-index file that commit left on disk looks like. It is also the
// file that commit saved the version-6 fixture it read as.
const v7FixturePath = "testdata/matcher-v7-dim16.bin"

// dim16Opts are the options the fixture was written under.
func dim16Opts(shards int) Options {
	o := durOpts(shards)
	o.Encoder = embed.NewHashEncoder(embed.WithDim(16))
	return o
}

// v7Bytes renders a version-8 file as version 7: the version fields set back
// (the matcher's to 7, each index's to 3), every row written dense, and each
// section's length to match. TestFormatEquivalence and TestV7FixtureUpgrade
// hold it to the bytes a real v7 writer produced.
func v7Bytes(t testing.TB, raw []byte) []byte {
	t.Helper()
	f := fileFields(t, raw)
	le := binary.LittleEndian
	src := slices.Clone(raw)
	le.PutUint32(src[8:], matcherFormatV7)
	for _, at := range f.indexVersions {
		le.PutUint32(src[at:], 3)
	}
	out := src[:f.sections[0][0]:f.sections[0][0]]
	rows := f.rows
	for _, sec := range f.sections {
		var body []byte
		from := sec[0] + 8
		for ; len(rows) > 0 && rows[0][0] < sec[1]; rows = rows[1:] {
			body = append(body, src[from:rows[0][0]]...)
			mask, vals := src[rows[0][0]:rows[0][0]+8*f.maskWords], src[rows[0][0]+8*f.maskWords:rows[0][1]]
			for c := range f.dim {
				if mask[c/8]>>(c%8)&1 == 0 {
					body = append(body, 0, 0, 0, 0)
				} else {
					body, vals = append(body, vals[:4]...), vals[4:]
				}
			}
			from = rows[0][1]
		}
		body = append(body, src[from:sec[1]]...)
		out = append(le.AppendUint64(out, uint64(len(body))), body...)
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

func readFixture(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile(v7FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(raw[8:]); v != matcherFormatV7 {
		t.Fatalf("%s is version %d", v7FixturePath, v)
	}
	return raw
}

// TestV7FixtureUpgrade: the parent-written v7 file loads under the dim-16
// encoder and saves as a v8 file that is the fixture with its rows as bitmask
// words (v7Bytes gives the fixture back). That file loads to a matcher with
// the same Save bytes, Stats, per-shard EntityBytes and IndexBytes, node
// aliases and Match replies.
func TestV7FixtureUpgrade(t *testing.T) {
	fixture := readFixture(t)
	from7 := mustLoad(t, fixture, dim16Opts(2))
	v8 := saveBytes(t, from7)
	if v := binary.LittleEndian.Uint32(v8[8:]); v != matcherFormatVersion {
		t.Fatalf("Save wrote version %d", v)
	}
	if !bytes.Equal(v7Bytes(t, v8), fixture) {
		t.Fatal("the v8 file, rendered as v7, is not the fixture")
	}
	t.Logf("v7 %d bytes, v8 %d", len(fixture), len(v8))
	from8 := mustLoad(t, v8, dim16Opts(2))
	assertLoadedAlike(t, from7, from8)
	assertMatchersIdentical(t, from7, from8, mustGeo(t, 0.01, 5))
}

// assertLoadedAlike holds two loads of one state to the same Save bytes,
// per-shard EntityBytes and IndexBytes, and node aliases.
func assertLoadedAlike(t *testing.T, want, got *Matcher) {
	t.Helper()
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, want)) {
		t.Fatal("the two loads save different bytes")
	}
	if w, g := shardBytes(want), shardBytes(got); !slices.Equal(w, g) {
		t.Fatalf("shards report (entity, index) bytes %v and %v", w, g)
	}
	if w, g := checkAliases(t, "want", want), checkAliases(t, "got", got); w != g {
		t.Fatalf("nodes alias as %+v and %+v", w, g)
	}
}

// TestFormatEquivalence: the v7 and the v8 file of one state load to
// matchers that cannot be told apart — Save bytes (v7 loads, v8 saves),
// EntityBytes and IndexBytes, node aliases, stats, tuples, Match replies, and
// the results of the same later batches — on both kernel paths.
func TestFormatEquivalence(t *testing.T) {
	d := smallGeo(t)
	for _, mode := range []string{"scalar", "avx2"} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", mode, shards), func(t *testing.T) {
				vector.ForceKernels(t, mode)
				m := staleMatcher(t, d, durOpts(shards))
				v8 := saveBytes(t, m)
				from7, from8 := mustLoad(t, v7Bytes(t, v8), durOpts(shards)), mustLoad(t, v8, durOpts(shards))
				if got := saveBytes(t, from7); !bytes.Equal(got, v8) {
					t.Fatal("loading v7 then Save does not yield the v8 bytes")
				}
				assertLoadedAlike(t, from8, from7)
				for _, rows := range randomBatches(d, 4, 8, 23) {
					r7, err7 := from7.AddRecords(rows)
					r8, err8 := from8.AddRecords(rows)
					if err7 != nil || err8 != nil || !slices.Equal(r7, r8) {
						t.Fatalf("AddRecords diverges after load: %v / %v\n  v7 %+v\n  v8 %+v", err7, err8, r7, r8)
					}
				}
				assertMatchersIdentical(t, from8, from7, d)
			})
		}
	}
}

// fileLayout is an independent reading of a matcher file.
type fileLayout struct {
	// bounds holds the offset at which every field starts (an array counts
	// as one field, a row as one), counts the offsets of the counts and
	// lengths among them.
	bounds, counts []int
	// m and probes are the offsets of the header's M and probes.
	m, probes int
	dim       int
	maskWords int // a bitmask row's 64-bit mask words
	// sections holds each shard's section's range, its length field
	// included; rows each row's byte range, entity rows then node rows, a
	// section at a time; indexVersions each embedded index's version field.
	sections, rows [][2]int
	indexVersions  []int
	// entCounts and nodeCounts hold each section's entity and node count
	// field.
	entCounts, nodeCounts []int
}

// fileFields walks a well-formed matcher file of either version it reads
// with nothing but encoding/binary: an independent reading of the format,
// which is what lets the hostile-input table below aim at each field instead
// of at random bytes.
func fileFields(t testing.TB, raw []byte) (f fileLayout) {
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
	dense := i32() == matcherFormatV7
	f.dim = i32()
	f.maskWords = (f.dim + 63) / 64
	f.m = field(4)
	f.probes = field(4 * len(probeTexts) * f.dim)
	// row walks one row: dim float32s, or its mask and a value a set bit.
	row := func() {
		n := 4 * f.dim
		if !dense {
			n = 8 * f.maskWords
			for _, b := range raw[off : off+n] {
				n += 4 * bits.OnesCount8(b)
			}
		}
		f.rows = append(f.rows, [2]int{off, off + n})
		field(n)
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
		start := off
		f.counts = append(f.counts, off)
		field(8) // section length; its low word takes the flip
		f.entCounts = append(f.entCounts, off)
		nEnts := count()
		field(8 * nEnts)
		for range nEnts {
			row()
		}
		for n := count(); n > 0; n-- {
			field(4 * count()) // members
			field(4)           // maxJoinDist
		}
		field(8) // compactions
		field(8) // index magic
		f.indexVersions = append(f.indexVersions, off)
		i32() // index version
		m := i32()
		i32() // efConstruction
		i32() // efSearch
		i32() // dim
		f.nodeCounts = append(f.nodeCounts, off)
		nodes := count()
		field(8 * nodes)
		for i := 0; i < nodes; i++ {
			count()          // the node's link count
			field(4 * 2 * m) // its link slots
		}
		for range nodes {
			row()
		}
		f.sections = append(f.sections, [2]int{start, off})
	}
	if off != len(raw) {
		t.Fatalf("walked %d bytes of a %d-byte file", off, len(raw))
	}
	return f
}

// TestLoadMatcherHostileInput pins the loader's contract for input it cannot
// trust, for both versions it reads (v7 through the parent-written fixture
// and v8 files rendered back): cut anywhere — at every field boundary of a
// small file, every 4 KiB of a large one — or with any count replaced by
// MaxInt32, LoadMatcher returns ErrCorruptState, never panics, and allocates
// at most 3 × the input + 64 KiB: one copy of the input (the in-memory
// reader is copied once, like a file is read once), at most the undamaged
// shards decoded beside it, and a constant for the matcher and per-shard
// shells. No count in the file adds to that. The header's M and probes are
// held to the same bound: an M that is no cosine distance is
// ErrCorruptState, a probe row that is not the encoder's embedding
// ErrEncoderMismatch. So is every row a v8 file holds: a mask bit at or past
// the dimension, a value whose bits are 0, values cut short, and an entity
// or node count the bytes cannot back are ErrCorruptState.
//
// Memory keeps a v7 row's nonzeros at 4 B each with its mask and descriptor,
// so the worst v7 file is one whose rows have no zero at all: the "full rows"
// legs, a dim-256 file whose every zero coordinate is rewritten to −0 (a
// nonzero to the store: its bits are not zero). That file, and the v8 file
// it saves as, load whole, save as that v8 file, and stay within the same
// bound.
func TestLoadMatcherHostileInput(t *testing.T) {
	small := saveBytes(t, staleMatcher(t, mustGeo(t, 0.01, 5), dim16Opts(2)))
	large := saveBytes(t, staleMatcher(t, smallGeo(t), durOpts(2)))
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
	full7 := fullRowFile(t)
	full8 := saveBytes(t, mustLoad(t, full7, durOpts(2)))
	for version, raw := range map[string][]byte{"v7": full7, "v8": full8} {
		t.Run(version+"/full rows loads", func(t *testing.T) {
			if m := check(t, "whole file", raw, durOpts(2), nil); !bytes.Equal(saveBytes(t, m), full8) {
				t.Fatal("the full-row file does not save as the v8 full-row file")
			}
		})
	}
	for version, raw := range map[string][]byte{"v7": v7Bytes(t, small), "v8": small} {
		t.Run(version+"/header", func(t *testing.T) {
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
	}
	t.Run("v8/rows", func(t *testing.T) {
		f := fileFields(t, small)
		// A row with values, its mask and its values' bytes.
		r := f.rows[slices.IndexFunc(f.rows, func(r [2]int) bool { return r[1]-r[0] > 8 })]
		mask, vals := small[r[0]:r[0]+8], small[r[0]+8:r[1]]
		for c := 16; c < 64; c++ {
			bad := slices.Clone(mask)
			bad[c/8] |= 1 << (c % 8)
			// The value is the row's last: a load that took the bit would
			// read the rows after it as they were.
			check(t, fmt.Sprintf("mask bit %d", c), withRow(f, small, r, slices.Concat(bad, vals, []byte{0, 0, 0, 0x3f})), dim16Opts(2), ErrCorruptState)
		}
		check(t, "value of bits 0", withRow(f, small, r, slices.Concat(mask, []byte{0, 0, 0, 0}, vals[4:])), dim16Opts(2), ErrCorruptState)
		// The file's last row is the last shard's last node's: the file
		// ends after its mask, with its values gone.
		last := f.rows[len(f.rows)-1]
		if last[1]-last[0] == 8 {
			t.Fatal("the file's last row holds no values")
		}
		check(t, "values cut short", withRow(f, small, last, small[last[0]:last[0]+8]), dim16Opts(2), ErrCorruptState)
		for name, at := range map[string]int{"entity count": f.entCounts[0], "node count": f.nodeCounts[0]} {
			bad := slices.Clone(small)
			binary.LittleEndian.PutUint32(bad[at:], 1<<20)
			check(t, name, bad, dim16Opts(2), ErrCorruptState)
		}
	})
	for _, tc := range []struct {
		name string
		raw  []byte
		opt  Options
		step int // 0: every field boundary
	}{
		{"v8/fields", small, dim16Opts(2), 0},
		{"v7/fields", readFixture(t), dim16Opts(2), 0},
		{"v8/4KiB", large, durOpts(2), 4 << 10},
		{"v7/4KiB", v7Bytes(t, large), durOpts(2), 4 << 10},
		{"v8/full rows", full8, durOpts(2), 0},
		{"v7/full rows", full7, durOpts(2), 0},
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
	// A v6 file is refused by its version field, whole, cut or with any
	// count replaced by MaxInt32, before anything past its header is read:
	// ErrFormatVersion once the version is in, ErrCorruptState before it,
	// within the same bound.
	for _, tc := range []struct {
		name string
		v7   []byte // the state, as a v7 file
		opt  Options
		step int // 0: every field boundary
	}{
		{"v6/fields", readFixture(t), dim16Opts(2), 0},
		{"v6/4KiB", v7Bytes(t, large), durOpts(2), 4 << 10},
		{"v6/full rows", full7, durOpts(2), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, bounds, counts := v6Layout(t, tc.v7)
			if tc.step > 0 {
				bounds, counts = nil, nil
				for cut := 0; cut < len(raw); cut += tc.step {
					bounds = append(bounds, cut)
				}
			}
			check(t, "whole file", raw, tc.opt, ErrFormatVersion)
			for _, cut := range bounds {
				want := ErrFormatVersion
				if cut < 12 {
					want = ErrCorruptState
				}
				check(t, fmt.Sprintf("cut at %d", cut), raw[:cut], tc.opt, want)
			}
			for _, off := range counts {
				bad := slices.Clone(raw)
				binary.LittleEndian.PutUint32(bad[off:], math.MaxInt32)
				check(t, "count", bad, tc.opt, ErrFormatVersion)
			}
		})
	}
}

// v6Layout renders a version-7 file as version 6, the layout the last build
// that read it took: the version field set back and the header's M and probes
// cut out. It returns that file with its field boundaries and count offsets,
// read off the v7 file's.
func v6Layout(t *testing.T, v7 []byte) (raw []byte, bounds, counts []int) {
	t.Helper()
	f := fileFields(t, v7)
	body := f.probes + 4*len(probeTexts)*f.dim // where the header ends
	raw = binary.LittleEndian.AppendUint32(slices.Clone(v7[:8]), 6)
	raw = slices.Concat(raw, v7[12:f.m], v7[body:])
	shift := func(offs []int) (out []int) {
		for _, o := range offs {
			switch {
			case o < f.m:
				out = append(out, o)
			case o >= body:
				out = append(out, o-(body-f.m))
			}
		}
		return out
	}
	return raw, shift(f.bounds), shift(f.counts)
}

// withRow returns the file raw, read as f, with row r's bytes replaced by row
// and its section's length set to match.
func withRow(f fileLayout, raw []byte, r [2]int, row []byte) []byte {
	out := slices.Concat(raw[:r[0]], row, raw[r[1]:])
	for _, sec := range f.sections {
		if sec[0] < r[0] && r[0] < sec[1] {
			n := binary.LittleEndian.Uint64(out[sec[0]:])
			binary.LittleEndian.PutUint64(out[sec[0]:], n+uint64(len(row))-uint64(r[1]-r[0]))
		}
	}
	return out
}

// fullRowFile saves a small two-shard dim-256 matcher as version 7 and
// rewrites every zero coordinate of its rows to −0, so no row has a zero to
// drop.
func fullRowFile(t *testing.T) []byte {
	raw := v7Bytes(t, saveBytes(t, staleMatcher(t, mustGeo(t, 0.01, 5), durOpts(2))))
	for _, r := range fileFields(t, raw).rows {
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
