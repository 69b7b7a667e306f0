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
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/datagen"
	"repro/internal/embed"
	"repro/internal/table"
)

// v8FixturePath names version-8 matcher files written by the last commit
// whose Save wrote version 8, each beside the Match replies that commit gave
// on the file's state (one line a query: the replies to every record of Geo
// at 0.01, seed 6, k 5): Geo at 0.01, seed 5, dim 16, M 0.5, six batches of
// eight random rows, a compaction of every shard (two shards only) and two
// absorb batches. The one-shard state holds one node a tuple, the two-shard
// state stale nodes too.
func v8FixturePath(shards int) string {
	return fmt.Sprintf("testdata/matcher-v8-dim16-shards%d", shards)
}

// dim16Opts are the options the fixture was written under.
func dim16Opts(shards int) Options {
	o := durOpts(shards)
	o.Encoder = embed.NewHashEncoder(embed.WithDim(16))
	return o
}

// v8Bytes renders a version-9 file in version 8's layout: the version field
// set back, each section's centroid rows dropped and a compaction count of 0
// put before its index. It is the v8 file of the state only where every
// tuple's centroid is its last node, as in a state a v8 file loaded to;
// elsewhere it is a v8 file of another state, which the hostile-input legs
// need no more than.
func v8Bytes(t testing.TB, raw []byte) []byte {
	t.Helper()
	f := fileFields(t, raw)
	le := binary.LittleEndian
	out := le.AppendUint32(slices.Clone(raw[:8]), matcherFormatV8)
	out = append(out, raw[12:f.sections[0][0]]...)
	for s, sec := range f.sections {
		body := slices.Concat(raw[sec[0]+8:f.indexStarts[s]], make([]byte, 8), raw[f.indexStarts[s]:f.centStarts[s]])
		out = append(le.AppendUint64(out, uint64(len(body))), body...)
	}
	return out
}

// absorbedMatcher builds a matcher and absorbs into it, so centroid rows
// differ from local tuple indexes and from the nodes in what it saves.
func absorbedMatcher(t *testing.T, d *table.Dataset, opt Options) *Matcher {
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
	if !recentred(m) {
		t.Fatal("matcher has no recomputed centroid")
	}
	return m
}

// recentred reports whether some tuple's centroid row is not the one it was
// created with.
func recentred(m *Matcher) bool {
	for _, sv := range m.state.Load().shards {
		if sv.cents.Len() > sv.tuples.Len() {
			return true
		}
	}
	return false
}

func mustLoad(t *testing.T, raw []byte, opt Options) *Matcher {
	t.Helper()
	m, err := LoadMatcher(bytes.NewReader(raw), opt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// readFile reads the matcher file at path and holds it to the version.
func readFile(t testing.TB, path string, version uint32) []byte {
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

// matchReplies renders m's Match replies to every record of Geo at 0.01,
// seed 6, at k 5, one line a query: the v8 fixtures' replies file.
func matchReplies(t *testing.T, m *Matcher) string {
	t.Helper()
	var b strings.Builder
	for _, e := range mustGeo(t, 0.01, 6).AllEntities() {
		cands, err := m.Match(e.Values, 5)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%+v\n", cands)
	}
	return b.String()
}

// TestV8Fixture: each parent-written v8 file loads — every node kept, the
// stale versions as more nodes of their tuples — and answers Match exactly
// as the v8 matcher did: the same candidates, distances and confidences,
// on every kernel path. It saves as a v9 file that loads to a matcher with
// the same Save bytes, aliases and replies, and that, rendered back as v8,
// is the fixture with its compaction counts at 0.
func TestV8Fixture(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eachKernel(t, func(t *testing.T) {
				fixture := readFile(t, v8FixturePath(shards)+".bin", matcherFormatV8)
				want, err := os.ReadFile(v8FixturePath(shards) + ".match")
				if err != nil {
					t.Fatal(err)
				}
				from8 := mustLoad(t, fixture, dim16Opts(shards))
				if got := matchReplies(t, from8); got != string(want) {
					t.Fatalf("%d shards: the v8 file answers\n%s\nthe v8 matcher answered\n%s", shards, got, want)
				}
				v9 := saveBytes(t, from8)
				if v := binary.LittleEndian.Uint32(v9[8:]); v != matcherFormatVersion {
					t.Fatalf("Save wrote version %d", v)
				}
				f8, f9 := fileFields(t, fixture), fileFields(t, v8Bytes(t, v9))
				if len(f8.compactions) != shards || !slices.Equal(f8.sections, f9.sections) {
					t.Fatalf("the v9 file's v8 layout has sections %v, the fixture %v", f9.sections, f8.sections)
				}
				zeroed := slices.Clone(fixture)
				for _, at := range f8.compactions {
					clear(zeroed[at : at+8])
				}
				if !bytes.Equal(v8Bytes(t, v9), zeroed) {
					t.Fatal("the v9 file, rendered as v8, is not the fixture")
				}
				from9 := mustLoad(t, v9, dim16Opts(shards))
				assertLoadedAlike(t, from8, from9)
				if got := matchReplies(t, from9); got != string(want) {
					t.Fatalf("%d shards: the v9 file answers otherwise than the v8 matcher", shards)
				}
			})
		})
	}
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
	// included; rows each row's byte range, entity rows, node rows, then
	// (version 9) centroid rows, a section at a time.
	sections, rows [][2]int
	// entCounts, tupleCounts and nodeCounts hold each section's entity,
	// tuple and node count field; indexStarts and centStarts where its
	// index and its centroid rows (version 9; the section's end before)
	// begin; compactions its compaction count's offset (version 8).
	entCounts, tupleCounts, nodeCounts   []int
	indexStarts, centStarts, compactions []int
}

// fileFields walks a well-formed matcher file of any version it reads
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
	version := uint32(i32())
	f.dim = i32()
	f.maskWords = (f.dim + 63) / 64
	f.m = field(4)
	f.probes = field(4 * len(probeTexts) * f.dim)
	// row walks one row: its mask and a value a set bit.
	row := func() {
		n := 8 * f.maskWords
		for _, b := range raw[off : off+n] {
			n += 4 * bits.OnesCount8(b)
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
		f.tupleCounts = append(f.tupleCounts, off)
		nTuples := count()
		for n := nTuples; n > 0; n-- {
			field(4 * count()) // members
			field(4)           // maxJoinDist
		}
		if version != matcherFormatVersion {
			f.compactions = append(f.compactions, field(8))
		}
		f.indexStarts = append(f.indexStarts, off)
		field(8) // index magic
		i32()    // index version
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
		f.centStarts = append(f.centStarts, off)
		if version == matcherFormatVersion {
			for range nTuples {
				row()
			}
		}
		f.sections = append(f.sections, [2]int{start, off})
	}
	if off != len(raw) {
		t.Fatalf("walked %d bytes of a %d-byte file", off, len(raw))
	}
	return f
}

// TestLoadMatcherHostileInput pins the loader's contract for input it cannot
// trust, for every version it reads (v9 files, them rendered back as v8, and
// the parent-written v8 fixture): cut anywhere — at every field boundary of
// a small file, every 4 KiB of a large one — or with any count replaced by
// MaxInt32, LoadMatcher returns ErrCorruptState, never panics, and
// allocates at most 3 × the input + 64 KiB: one copy of the input (the
// in-memory reader is copied once, like a file is read once), at most the
// undamaged shards decoded beside it, and a constant for the matcher and
// per-shard shells. No count in the file adds to that, the tuple
// count that sizes v9's centroid table included. The header's M and probes
// are held to the same bound: an M that is no cosine distance is
// ErrCorruptState, a probe row that is not the encoder's embedding bit for
// bit (one flipped mantissa bit included) ErrEncoderMismatch. So is every
// bitmask row a v8 or v9 file holds, a v9 file's centroid rows included: a
// mask bit at or past the dimension, a value whose bits are 0, values cut
// short, and an entity or node count the bytes cannot back are
// ErrCorruptState.
//
// The largest rows a file holds are those with no zero at all: the "full
// rows" legs, a dim-256 v8 file whose every row has each mask bit set and
// −0 (a nonzero to the store: its bits are not zero) where it stored no
// value. That file, and the v9 file it saves as, load whole, save as that
// v9 file, and stay within the same bound.
//
// A v7 file is refused by its version field before anything past its header
// is read.
func TestLoadMatcherHostileInput(t *testing.T) {
	small := saveBytes(t, absorbedMatcher(t, mustGeo(t, 0.01, 5), dim16Opts(2)))
	large := saveBytes(t, absorbedMatcher(t, smallGeo(t), durOpts(2)))
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
	full8 := fullRowFile(t)
	full9 := saveBytes(t, mustLoad(t, full8, durOpts(2)))
	for version, raw := range map[string][]byte{"v8": full8, "v9": full9} {
		t.Run(version+"/full rows loads", func(t *testing.T) {
			if m := check(t, "whole file", raw, durOpts(2), nil); !bytes.Equal(saveBytes(t, m), full9) {
				t.Fatal("the full-row file does not save as the v9 full-row file")
			}
		})
	}
	small8 := v8Bytes(t, small)
	for version, raw := range map[string][]byte{"v8": small8, "v9": small} {
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
				bad = slices.Clone(raw)
				bad[f.probes+4*16*i] ^= 0x01 // probe i's first coordinate, its lowest mantissa bit flipped
				check(t, fmt.Sprintf("probe %d, one bit", i), bad, dim16Opts(2), ErrEncoderMismatch)
			}
		})
	}
	for version, raw := range map[string][]byte{"v8": small8, "v9": small} {
		t.Run(version+"/rows", func(t *testing.T) {
			f := fileFields(t, raw)
			// Rows with values, their masks and their values' bytes: the
			// first, an entity row, and (v9) the first centroid row.
			rows := [][2]int{f.rows[slices.IndexFunc(f.rows, func(r [2]int) bool { return r[1]-r[0] > 8 })]}
			if version == "v9" {
				c := slices.IndexFunc(f.rows, func(r [2]int) bool { return r[0] >= f.centStarts[0] && r[1]-r[0] > 8 })
				rows = append(rows, f.rows[c])
			}
			for _, r := range rows {
				mask, vals := raw[r[0]:r[0]+8], raw[r[0]+8:r[1]]
				for c := 16; c < 64; c++ {
					bad := slices.Clone(mask)
					bad[c/8] |= 1 << (c % 8)
					// The value is the row's last: a load that took the bit
					// would read the rows after it as they were.
					check(t, fmt.Sprintf("row at %d: mask bit %d", r[0], c), withRow(f, raw, r, slices.Concat(bad, vals, []byte{0, 0, 0, 0x3f})), dim16Opts(2), ErrCorruptState)
				}
				check(t, fmt.Sprintf("row at %d: value of bits 0", r[0]), withRow(f, raw, r, slices.Concat(mask, []byte{0, 0, 0, 0}, vals[4:])), dim16Opts(2), ErrCorruptState)
			}
			// The file's last row is the last shard's last node's (v8) or
			// last centroid's (v9): the file ends after its mask, with its
			// values gone.
			last := f.rows[len(f.rows)-1]
			if last[1]-last[0] == 8 {
				t.Fatal("the file's last row holds no values")
			}
			check(t, "values cut short", withRow(f, raw, last, raw[last[0]:last[0]+8]), dim16Opts(2), ErrCorruptState)
			for name, at := range map[string]int{"entity count": f.entCounts[0], "tuple count": f.tupleCounts[0], "node count": f.nodeCounts[0]} {
				bad := slices.Clone(raw)
				binary.LittleEndian.PutUint32(bad[at:], 1<<20)
				check(t, name, bad, dim16Opts(2), ErrCorruptState)
			}
		})
	}
	fixture8 := readFile(t, v8FixturePath(2)+".bin", matcherFormatV8)
	large8 := v8Bytes(t, large)
	for _, tc := range []struct {
		name string
		raw  []byte
		opt  Options
		step int // 0: every field boundary
	}{
		{"v9/fields", small, dim16Opts(2), 0},
		{"v8/fields", small8, dim16Opts(2), 0},
		{"v8/fixture fields", fixture8, dim16Opts(2), 0},
		{"v9/4KiB", large, durOpts(2), 4 << 10},
		{"v8/4KiB", large8, durOpts(2), 4 << 10},
		{"v9/full rows", full9, durOpts(2), 0},
		{"v8/full rows", full8, durOpts(2), 0},
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
	// A v6 or v7 file is refused by its version field, whole, cut or with
	// any count replaced by MaxInt32, before anything past its header is
	// read: ErrFormatVersion once the version is in, ErrCorruptState before
	// it, within the same bound. Each is rendered from a v8 file by its
	// layout function.
	for _, tc := range []struct {
		name   string
		v8     []byte // the state, as a v8 file
		layout func(t *testing.T, v8 []byte) (raw []byte, bounds, counts []int)
		opt    Options
		step   int // 0: every field boundary
	}{
		{"v6/fields", fixture8, v6Layout, dim16Opts(2), 0},
		{"v6/4KiB", large8, v6Layout, durOpts(2), 4 << 10},
		{"v6/full rows", full8, v6Layout, durOpts(2), 0},
		{"v7/fields", fixture8, v7Layout, dim16Opts(2), 0},
		{"v7/4KiB", large8, v7Layout, durOpts(2), 4 << 10},
		{"v7/full rows", full8, v7Layout, durOpts(2), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, bounds, counts := tc.layout(t, tc.v8)
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

// v7Layout renders a version-8 file as version 7: the version field set
// back, everything else as it was. It returns that file with its field
// boundaries and count offsets.
func v7Layout(t *testing.T, v8 []byte) (raw []byte, bounds, counts []int) {
	t.Helper()
	f := fileFields(t, v8)
	raw = slices.Clone(v8)
	binary.LittleEndian.PutUint32(raw[8:], 7)
	return raw, f.bounds, f.counts
}

// v6Layout renders a version-8 file as version 6, the layout the last build
// that read it took: the version field set back and the header's M and probes
// cut out. It returns that file with its field boundaries and count offsets,
// read off the v8 file's.
func v6Layout(t *testing.T, v8 []byte) (raw []byte, bounds, counts []int) {
	t.Helper()
	f := fileFields(t, v8)
	body := f.probes + 4*len(probeTexts)*f.dim // where the header ends
	raw = binary.LittleEndian.AppendUint32(slices.Clone(v8[:8]), 6)
	raw = slices.Concat(raw, v8[12:f.m], v8[body:])
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
	return rewriteRows(f, raw, func(q [2]int) []byte {
		if q == r {
			return row
		}
		return raw[q[0]:q[1]]
	})
}

// rewriteRows returns the file raw, read as f, with each row r's bytes
// replaced by row(r) and each section's length set to match.
func rewriteRows(f fileLayout, raw []byte, row func(r [2]int) []byte) []byte {
	out := raw[:f.sections[0][0]:f.sections[0][0]]
	rows := f.rows
	for _, sec := range f.sections {
		var body []byte
		from := sec[0] + 8
		for ; len(rows) > 0 && rows[0][0] < sec[1]; rows = rows[1:] {
			body = append(append(body, raw[from:rows[0][0]]...), row(rows[0])...)
			from = rows[0][1]
		}
		body = append(body, raw[from:sec[1]]...)
		out = append(binary.LittleEndian.AppendUint64(out, uint64(len(body))), body...)
	}
	return out
}

// fullRowFile saves a small two-shard dim-256 matcher in version 8's layout
// with every row full: each mask bit set, and −0 where the row stored no
// value, so no row has a zero to drop.
func fullRowFile(t *testing.T) []byte {
	raw := v8Bytes(t, saveBytes(t, absorbedMatcher(t, mustGeo(t, 0.01, 5), durOpts(2))))
	f := fileFields(t, raw)
	full := make([]byte, 8*f.maskWords)
	for c := range f.dim {
		full[c/8] |= 1 << (c % 8)
	}
	return rewriteRows(f, raw, func(r [2]int) []byte {
		mask, vals := raw[r[0]:r[0]+len(full)], raw[r[0]+len(full):r[1]]
		out := slices.Clone(full)
		for c := range f.dim {
			if mask[c/8]>>(c%8)&1 == 0 {
				out = append(out, 0, 0, 0, 0x80) // −0
			} else {
				out, vals = append(out, vals[:4]...), vals[4:]
			}
		}
		return out
	})
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
	raw := saveBytes(t, absorbedMatcher(t, d, durOpts(2)))
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
