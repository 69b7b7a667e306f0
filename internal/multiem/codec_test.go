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

// v4FixturePath is a version-4 matcher file written by the last commit whose
// Save wrote version 4 (Geo at 0.01, seed 5, dim 16, 2 shards, two absorb
// batches so stale index entries are present): the one v4 file in this
// repository that no code here produced.
const v4FixturePath = "testdata/matcher-v4-dim16.bin"

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
		for l := 0; l < sv.tuples.len(); l++ {
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

// TestV4FixtureRoundTrip: the parent-written v4 file loads, what it loads to
// renders back to the very same v4 bytes (so v4Bytes is the v4 format, not
// this commit's idea of it), and it saves as a v5 file that is smaller by the
// centroids block and loads to the same state.
func TestV4FixtureRoundTrip(t *testing.T) {
	fixture, err := os.ReadFile(v4FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(fixture[8:]); v != matcherFormatV4 {
		t.Fatalf("fixture is version %d", v)
	}
	m := mustLoad(t, fixture, dim16Opts(2))
	if got := v4Bytes(t, m); !bytes.Equal(got, fixture) {
		t.Fatalf("fixture re-rendered as v4 differs: %d vs %d bytes", len(got), len(fixture))
	}
	v5 := saveBytes(t, m)
	if v := binary.LittleEndian.Uint32(v5[8:]); v != matcherFormatVersion {
		t.Fatalf("Save wrote version %d", v)
	}
	if want := len(fixture) - m.Stats().Tuples*16*4; len(v5) != want {
		t.Fatalf("v5 is %d bytes, want the fixture's %d less one row a tuple = %d", len(v5), len(fixture), want)
	}
	if again := saveBytes(t, mustLoad(t, v5, dim16Opts(2))); !bytes.Equal(again, v5) {
		t.Fatal("v5 does not save back to itself")
	}
}

// TestFormatEquivalence: a v4 file and the v5 file of one state load to
// matchers that cannot be told apart — Save bytes (v4 loads, v5 saves),
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

// fileFields walks a well-formed matcher file of either version with nothing
// but encoding/binary and returns the offset at which every field starts (an
// array counts as one field) and, of those, the offsets of the counts and
// lengths: an independent reading of the format, which is what lets the
// hostile-input table below aim at each field instead of at random bytes.
func fileFields(t *testing.T, raw []byte) (bounds, counts []int) {
	t.Helper()
	off := 0
	field := func(n int) int {
		bounds = append(bounds, off)
		off += n
		return off - n
	}
	i32 := func() int { return int(int32(binary.LittleEndian.Uint32(raw[field(4):]))) }
	count := func() int {
		counts = append(counts, off)
		return i32()
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
		counts = append(counts, off)
		field(8) // section length; its low word takes the flip
		nEnts := count()
		field(8 * nEnts)
		field(4 * dim * nEnts)
		nTuples := count()
		for i := 0; i < nTuples; i++ {
			field(4 * count()) // members
			field(4)           // maxJoinDist
		}
		if version == matcherFormatV4 {
			field(4 * dim * nTuples) // centroids
		}
		field(8) // compactions
		field(8) // index magic
		for i := 0; i < 5; i++ {
			i32() // version, M, efConstruction, efSearch, metric
		}
		field(8) // seed
		i32()    // dim
		nodes := count()
		i32() // entry
		i32() // maxL
		field(8 * nodes)
		levels := raw[field(4*nodes):]
		for i := 0; i < nodes; i++ {
			for l := int32(binary.LittleEndian.Uint32(levels[4*i:])); l >= 0; l-- {
				field(4 * count()) // a link block
			}
		}
		field(4 * dim * nodes)
	}
	if off != len(raw) {
		t.Fatalf("walked %d bytes of a %d-byte file", off, len(raw))
	}
	return bounds, counts
}

// TestLoadMatcherHostileInput pins the loader's contract for input it cannot
// trust, for both versions it reads: cut anywhere — at every field boundary
// of a small file, every 4 KiB of a large one — or with any count replaced
// by MaxInt32, LoadMatcher returns ErrCorruptState, never panics, and
// allocates at most 3 × the input + 64 KiB: one copy of the input (the
// in-memory reader is copied once, like a file is read once), at most the
// undamaged shards decoded beside it, and a constant for the matcher and
// per-shard shells. No count in the file adds to that.
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
	for _, tc := range []struct {
		name string
		raw  []byte
		opt  Options
		step int // 0: every field boundary
	}{
		{"v5/fields", saveBytes(t, small), dim16Opts(2), 0},
		{"v4/fields", v4Bytes(t, small), dim16Opts(2), 0},
		{"v5/4KiB", saveBytes(t, large), durOpts(2), 4 << 10},
		{"v4/4KiB", v4Bytes(t, large), durOpts(2), 4 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.step > 0 {
				for cut := 0; cut < len(tc.raw); cut += tc.step {
					check(t, "cut", tc.raw[:cut], tc.opt)
				}
				return
			}
			bounds, counts := fileFields(t, tc.raw)
			for _, cut := range bounds {
				check(t, "cut", tc.raw[:cut], tc.opt)
			}
			for _, off := range counts {
				bad := append([]byte(nil), tc.raw...)
				binary.LittleEndian.PutUint32(bad[off:], math.MaxInt32)
				check(t, "count", bad, tc.opt)
			}
			t.Logf("%d bytes: %d field boundaries, %d counts", len(tc.raw), len(bounds), len(counts))
		})
	}
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
