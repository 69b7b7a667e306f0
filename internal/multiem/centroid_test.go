package multiem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/embed"
	"repro/internal/vector"
)

// Each tuple's centroid is one row of its shard's centroid table, and its
// graph nodes never change. These tests pin the invariants that tie the two
// to the tuple table, the load-time checks that make derived pointers safe,
// and the memory the layout takes.

// checkCentroidNodes verifies one shard's state, writer-side or published:
// every node names a live tuple, every tuple's first node is the first that
// names it, and every tuple's centroid row holds exactly the centroid its
// members produce. It returns a copy of the centroids in local order.
func checkCentroidNodes(v *shardView) ([][]float32, error) {
	first := make(map[int]int, v.tuples.Len())
	for node, id := range v.index.IDs() {
		if id < 0 || id >= v.tuples.Len() {
			return nil, fmt.Errorf("node %d names tuple %d, of %d", node, id, v.tuples.Len())
		}
		if _, ok := first[id]; !ok {
			first[id] = node
		}
	}
	want := make([]float32, v.index.Dim())
	out := make([][]float32, v.tuples.Len())
	for l := 0; l < v.tuples.Len(); l++ {
		ts := v.tuples.at(l)
		if n, ok := first[l]; !ok || int(ts.node) != n {
			return nil, fmt.Errorf("tuple %d starts at node %d; its first node is %d (has one: %v)", l, ts.node, n, ok)
		}
		if ts.cent < 0 || int(ts.cent) >= v.cents.Len() {
			return nil, fmt.Errorf("tuple %d's centroid row %d is out of %d", l, ts.cent, v.cents.Len())
		}
		centroidInto(want, ts.members, v.entVecs)
		got := make([]float32, v.index.Dim())
		v.cents.CopyTo(got, int(ts.cent))
		if !sameBits(got, want) {
			return nil, fmt.Errorf("tuple %d: centroid row %d holds %v, members give %v", l, ts.cent, got, want)
		}
		out[l] = got
	}
	return out, nil
}

func checkWriterShards(t *testing.T, m *Matcher) {
	t.Helper()
	m.addMu.Lock()
	defer m.addMu.Unlock()
	for s, sh := range m.shards {
		if _, err := checkCentroidNodes(&sh.shardView); err != nil {
			t.Fatalf("writer shard %d: %v", s, err)
		}
	}
}

// TestCentroidNodeInvariants sweeps shard counts and tuple chunk layouts
// over a history with batch-formed multi-member tuples, absorptions and a
// reclamation on every shard. After every phase — before and after the
// reclamation — the writer state and the published view satisfy
// checkCentroidNodes; a view pinned before the reclamation keeps satisfying
// it, with unchanged values, while the writer ingests and reclaims
// underneath (the -race half of the property).
func TestCentroidNodeInvariants(t *testing.T) {
	d := smallGeo(t)
	for _, shards := range []int{1, 2, 4} {
		for _, layout := range chunkLayouts {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, layout.name), func(t *testing.T) {
				opt := durOpts(shards)
				opt.tupleChunkOverride = layout.override
				m, err := BuildMatcher(d, opt)
				if err != nil {
					t.Fatal(err)
				}
				checkWriterShards(t, m)
				chained := false
				for _, rows := range randomBatches(d, 6, 8, int64(31+shards)) {
					res, err := m.AddRecords(rows)
					if err != nil {
						t.Fatal(err)
					}
					created := map[int]bool{}
					for _, r := range res {
						chained = chained || (r.Absorbed && created[r.Tuple])
						created[r.Tuple] = created[r.Tuple] || !r.Absorbed
					}
					checkWriterShards(t, m)
				}
				if !chained {
					t.Fatal("history formed no multi-member tuple inside a batch")
				}

				pinned := m.state.Load()
				frozen := make([][][]float32, len(pinned.shards))
				checkPinned := func() error {
					for s, v := range pinned.shards {
						cents, err := checkCentroidNodes(v)
						if err != nil {
							return fmt.Errorf("pinned shard %d: %w", s, err)
						}
						if frozen[s] == nil {
							frozen[s] = cents
						}
						for l := range cents {
							if !sameBits(cents[l], frozen[s][l]) {
								return fmt.Errorf("pinned shard %d: tuple %d's centroid changed under the view", s, l)
							}
						}
					}
					return nil
				}
				if err := checkPinned(); err != nil {
					t.Fatal(err)
				}

				stop := make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						if err := checkPinned(); err != nil {
							t.Error(err)
							return
						}
						select {
						case <-stop:
							return
						default:
						}
					}
				}()
				reclaimEveryShard(t, m, absorbRows(m, d, 40), func([]AddResult) { checkWriterShards(t, m) })
				close(stop)
				wg.Wait()

				checkWriterShards(t, m)
				for s, v := range m.state.Load().shards {
					if _, err := checkCentroidNodes(v); err != nil {
						t.Fatalf("published shard %d after the reclamation: %v", s, err)
					}
				}
				if err := checkPinned(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCentroidSparseParity: a tuple centroid computed from a shard's sparse
// entity store has the bits of the one computed from the same rows dense —
// the pipeline's definition — for every member count from 1 to N, on both
// kernel paths (Normalize's norm is a kernel call). Row 0 holds a −0, so the
// singleton centroid is the sparse store's expansion of a −0 it kept: a
// store that dropped it would give back +0.
func TestCentroidSparseParity(t *testing.T) {
	const n = 12
	enc := durOpts(1).Encoder
	dense, sparse := vector.NewStore(enc.Dim()), vector.NewSparseRows(enc.Dim())
	for i, e := range smallGeo(t).Tables[0].Entities[:n] {
		v := enc.Encode(strings.Join(e.Values, " "))
		if i == 0 {
			d := slices.Index(v, 0)
			v[d] = float32(math.Copysign(0, -1))
		}
		dense.Append(v)
		sparse.Append(v)
	}
	eachKernel(t, func(t *testing.T) {
		want, got := make([]float32, enc.Dim()), make([]float32, enc.Dim())
		check := func(members []int) {
			t.Helper()
			centroidInto(want, members, dense)
			centroidInto(got, members, sparse)
			if !sameBits(got, want) {
				d := 0
				for math.Float32bits(got[d]) == math.Float32bits(want[d]) {
					d++
				}
				t.Fatalf("members %v: coordinate %d of the sparse centroid is %v, dense %v", members, d, got[d], want[d])
			}
		}
		check([]int{0})
		if !slices.ContainsFunc(got, func(x float32) bool { return math.Signbit(float64(x)) && x == 0 }) {
			t.Fatal("the singleton centroid of a row holding −0 holds none")
		}
		for k := 1; k <= n; k++ {
			members := make([]int, k)
			for i := range members {
				members[i] = (i*5 + k) % n // a different order for each count
			}
			check(members)
		}
	})
}

func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// indexOffset locates the embedded index of a single-shard matcher file.
func indexOffset(t *testing.T, raw []byte) int {
	t.Helper()
	off := bytes.LastIndex(raw, []byte("HNSWIDX\n"))
	if off < 0 {
		t.Fatal("no embedded index in the matcher file")
	}
	return off
}

// TestLoadMatcherRejectsUnservableState: a file whose sections contradict
// each other must fail to load with ErrCorruptState — with each tuple's
// nodes derived from the index, a tuple no node names could never be found.
func TestLoadMatcherRejectsUnservableState(t *testing.T) {
	d := smallGeo(t)
	m, err := BuildMatcher(d, durOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	raw := saveBytes(t, m)
	ix := indexOffset(t, raw)

	t.Run("tuple without index node", func(t *testing.T) {
		// A fresh build has one node per tuple, node l for tuple l.
		// Re-labelling node 0 as tuple 1 leaves tuple 0 with none, and
		// tuple 1 still resolves to its own, later node.
		bad := append([]byte(nil), raw...)
		const idsOff = 8 + 4 + 3*4 + 2*4 // magic, version, config, shape
		if got := binary.LittleEndian.Uint64(bad[ix+idsOff:]); got != 0 {
			t.Fatalf("first index id is %d, want 0", got)
		}
		binary.LittleEndian.PutUint64(bad[ix+idsOff:], 1)
		_, err := LoadMatcher(bytes.NewReader(bad), durOpts(1))
		if !errors.Is(err, ErrCorruptState) || !strings.Contains(err.Error(), "tuple 0 has no index entry") {
			t.Fatalf("LoadMatcher: %v, want ErrCorruptState naming tuple 0", err)
		}
	})
	t.Run("every truncation", func(t *testing.T) {
		for cut := 0; cut < len(raw); cut += 1 + len(raw)/97 {
			if _, err := LoadMatcher(bytes.NewReader(raw[:cut]), durOpts(1)); !errors.Is(err, ErrCorruptState) {
				t.Fatalf("file cut to %d/%d bytes: %v, want ErrCorruptState", cut, len(raw), err)
			}
		}
	})
}

// TestMatcherHeapBudget holds the serving heap to one bitmask row per entity,
// graph node and live centroid, with the dead centroid rows a reclamation
// bounds. With dense entity rows, a dense node or centroid store, or no
// reclamation, the same state misses the budget.
func TestMatcherHeapBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)

	d := smallGeo(t)
	m, err := BuildMatcher(d, durOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	rows := absorbRows(m, d, 40)
	for b := 0; b < 40; b++ {
		if _, err := m.AddRecords(rows); err != nil {
			t.Fatal(err)
		}
	}
	s, perShard, _ := m.StatsWithShards()
	d, rows = nil, nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)

	// 3: at this size the link blocks (100 B a node, most of a Geo
	// centroid's row), ids, tuples, the dead centroid rows (up to an eighth
	// of the live words) and each table's last chunk weigh about as much as
	// the rows. This state reads 2.1 (841 KiB for 400 KiB of rows; a
	// singleton's node and an unmoved centroid count 8 B each: they are
	// other rows), and would read about 2.9 with a dense centroid table,
	// and 7.6 with dense entity rows, by the rows each would add.
	entityBytes, indexBytes := 0, 0
	for _, ss := range perShard {
		entityBytes += ss.EntityBytes
		indexBytes += ss.IndexBytes
	}
	rowBytes := entityBytes + indexBytes
	budget := uint64(3 * float64(rowBytes))
	got := after.HeapAlloc - before.HeapAlloc
	t.Logf("%d entities (%d KiB of rows) + %d index entries (%d KiB of rows), %d tuples: heap %d KiB, budget %d KiB, a second arena would add %d KiB",
		s.Entities, entityBytes>>10, s.IndexSize, indexBytes>>10, s.Tuples, got>>10, budget>>10, s.IndexSize*s.Dim*4>>10)
	if got > budget {
		t.Fatalf("matcher holds %d bytes for %d bytes of entity and index rows; budget %d", got, rowBytes, budget)
	}
}

// FuzzLoadMatcher: LoadMatcher reads snapshot files a follower fetched from
// its -primary-url and whatever -load-index names. On arbitrary bytes it must
// not panic, must fail only with a typed error, must not let a count in the
// file size an allocation the file cannot back, and what it accepts must
// save back to the bytes it read — so no two files load to the same state
// (a v8 file's compaction counts, which nothing reads, aside) and
// nothing it accepts is silently repaired.
func FuzzLoadMatcher(f *testing.F) {
	const dim = 16
	opt := geoOpts()
	opt.Encoder = embed.NewHashEncoder(embed.WithDim(dim))
	d, err := datagen.GenerateByName("Geo", 0.01, 5)
	if err != nil {
		f.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		opt.Shards = shards
		m, err := BuildMatcher(d, opt)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(saveBytes(f, m))
		// Absorptions move centroids, so centroid rows differ from the
		// nodes in the seed.
		for batch := 0; batch < 2; batch++ {
			if _, err := m.AddRecords(absorbRows(m, d, 8)); err != nil {
				f.Fatal(err)
			}
		}
		if !recentred(m) {
			f.Fatal("seed matcher has no recomputed centroid")
		}
		f.Add(saveBytes(f, m))
	}
	// A header that promises 2^20 schema strings and 4096 shards, in each
	// version it reads and in version 7, which it refuses: a header holds M
	// and the probes of the encoder below.
	m, err := BuildMatcher(d, opt)
	if err != nil {
		f.Fatal(err)
	}
	v9 := saveBytes(f, m)[:16+4+4*len(probeTexts)*dim] // magic, version, dim, M, probes
	for _, version := range []uint32{7, matcherFormatV8, matcherFormatVersion} {
		hdr := slices.Concat(binary.LittleEndian.AppendUint32(slices.Clone(v9[:8]), version), v9[12:])
		f.Add(append(hdr, 9, 0, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0, 16, 0))
	}
	// The file the last v8 writer left, it with its version set to 7, which
	// is refused, and a matcher built under another encoder, whose probes the
	// one below refuses.
	v8 := readFile(f, v8FixturePath(2)+".bin", matcherFormatV8)
	f.Add(v8)
	v7 := slices.Clone(v8)
	binary.LittleEndian.PutUint32(v7[8:], 7)
	f.Add(v7)
	grams3 := opt
	grams3.Encoder = embed.NewHashEncoder(embed.WithDim(dim), embed.WithGrams(3))
	if m, err = BuildMatcher(d, grams3); err != nil {
		f.Fatal(err)
	}
	f.Add(saveBytes(f, m))

	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := LoadMatcher(bytes.NewReader(raw), opt)
		runtime.ReadMemStats(&after)
		// Measured on a 140 KB state of this dim: 3.1x (2.1x at dim 256) —
		// the one copy of the input, then arenas of exactly the input's
		// size plus what memory adds to it (link blocks at full capacity
		// with their distance cache, tuple rows, the published view). The
		// constant covers 4096 empty shards and the runtime.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(raw)+4<<20); got > limit {
			t.Fatalf("loading %d bytes allocated %d (limit %d)", len(raw), got, limit)
		}
		if err != nil {
			if m != nil || !(errors.Is(err, ErrCorruptState) || errors.Is(err, ErrFormatVersion) || errors.Is(err, ErrEncoderMismatch)) {
				t.Fatalf("untyped failure: %v", err)
			}
			return
		}
		// Bytes past the last section are not LoadMatcher's. A v8 file
		// saves as version 9, dropping its compaction counts, which nothing
		// reads: for one the property is held by the v9 file it becomes, and
		// by that file rendered back as v8, which must be the input with its
		// compaction counts at 0.
		again := saveBytes(t, m)
		if binary.LittleEndian.Uint32(raw[8:]) == matcherFormatV8 {
			want := v8Bytes(t, again)
			if len(raw) < len(want) {
				t.Fatalf("a %d-byte v8 file loaded, and renders back as %d bytes", len(raw), len(want))
			}
			zeroed := slices.Clone(raw[:len(want)])
			for _, at := range fileFields(t, want).compactions {
				clear(zeroed[at : at+8])
			}
			if !bytes.Equal(zeroed, want) {
				t.Fatal("a v8 file loaded, and the v9 file it saves as does not render back to it")
			}
			m9, err := LoadMatcher(bytes.NewReader(again), opt)
			if err != nil {
				t.Fatalf("a file loaded, the v9 file it saved as did not: %v", err)
			}
			raw, again = again, saveBytes(t, m9)
		}
		if !bytes.HasPrefix(raw, again) {
			t.Fatalf("accepted %d bytes that save back as %d different ones", len(raw), len(again))
		}
	})
}
