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
	"repro/internal/hnsw"
	"repro/internal/vector"
)

// The shard's HNSW index holds the only copy of every tuple centroid. These
// tests pin what replaced the second copy: the node pointer invariants, the
// load-time checks that make a derived pointer safe, and the memory it saved.

// checkCentroidNodes verifies one shard's state, writer-side or published:
// every tuple's node carries the tuple's id, is the last node that does, and
// holds exactly the centroid its members produce. It returns a copy of the
// centroids in local order.
func checkCentroidNodes(tuples *tupleTable, index *hnsw.Index, entVecs *vector.SparseRows) ([][]float32, error) {
	ids := index.IDs()
	last := make(map[int]int, tuples.Len())
	for node, id := range ids {
		last[id] = node
	}
	want := make([]float32, index.Dim())
	out := make([][]float32, tuples.Len())
	for l := 0; l < tuples.Len(); l++ {
		ts := tuples.at(l)
		node := int(ts.node)
		if node < 0 || node >= len(ids) || ids[node] != l {
			return nil, fmt.Errorf("tuple %d points at node %d, which is not one of its entries", l, node)
		}
		if last[l] != node {
			return nil, fmt.Errorf("tuple %d points at node %d, but node %d is its newest entry", l, node, last[l])
		}
		centroidInto(want, ts.members, entVecs)
		got := make([]float32, index.Dim())
		index.CopyTo(got, node)
		if !sameBits(got, want) {
			return nil, fmt.Errorf("tuple %d: node %d holds %v, members give %v", l, node, got, want)
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
		if _, err := checkCentroidNodes(&sh.tuples, sh.index, sh.entVecs); err != nil {
			t.Fatalf("writer shard %d: %v", s, err)
		}
	}
}

// TestCentroidNodeInvariants sweeps shard counts and tuple chunk layouts
// over a history with batch-formed multi-member tuples, absorptions and a
// compaction on every shard. After every phase the writer state and the
// published view satisfy checkCentroidNodes; a view pinned before the
// compaction keeps satisfying it, with unchanged values, while the writer
// ingests and compacts underneath (the -race half of the property).
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
						cents, err := checkCentroidNodes(&v.tuples, v.index, v.entVecs)
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
				compactEveryShard(t, m, absorbRows(m, d, 40), func([]AddResult) {})
				close(stop)
				wg.Wait()

				checkWriterShards(t, m)
				for s, v := range m.state.Load().shards {
					if _, err := checkCentroidNodes(&v.tuples, v.index, v.entVecs); err != nil {
						t.Fatalf("published shard %d after compaction: %v", s, err)
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
// each other must fail to load with ErrCorruptState — with node pointers
// derived from the index, either state would otherwise serve a wrong or
// out-of-range centroid row on the first query.
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

// TestMatcherHeapBudget holds the serving heap to one bitmask row per entity
// and one per index entry. With a second centroid arena beside the index —
// one more dense vector per index entry — the same state misses the budget,
// and so it does with dense entity rows or a dense node store.
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
	for m.Stats().IndexSize < 2*m.Stats().Tuples {
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

	// 3: at this size the link blocks (100 B an entry, most of a Geo
	// centroid's row), ids, tuples and each table's last chunk weigh as
	// much as the rows. This state reads 2.59 (the index's singleton nodes
	// count 8 B each: they are their entity rows), and would read about 5.1
	// with a second, dense centroid arena, 4.8 with dense node vectors (1.5
	// of those rows when the node store was dense) and 6.7 with dense
	// entity rows, by the rows each would add.
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
// and nothing it accepts is silently repaired.
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
		// Absorptions leave stale entries, so node pointers differ from
		// local indexes in the seed.
		for batch := 0; batch < 2; batch++ {
			if _, err := m.AddRecords(absorbRows(m, d, 8)); err != nil {
				f.Fatal(err)
			}
		}
		if s := m.Stats(); s.IndexSize == s.Live {
			f.Fatal("seed matcher has no stale index entries")
		}
		f.Add(saveBytes(f, m))
	}
	// A header that promises 2^20 schema strings and 4096 shards, in each
	// version: a header holds M and the probes of the encoder below.
	m, err := BuildMatcher(d, opt)
	if err != nil {
		f.Fatal(err)
	}
	v8 := saveBytes(f, m)[:16+4+4*len(probeTexts)*dim] // magic, version, dim, M, probes
	v7 := binary.LittleEndian.AppendUint32(slices.Clone(v8[:8]), matcherFormatV7)
	for _, hdr := range [][]byte{append(v7, v8[12:]...), v8} {
		f.Add(append(hdr, 9, 0, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0, 16, 0))
	}
	// The file the last v7 writer left, and a matcher built under another
	// encoder, whose probes the one below refuses.
	f.Add(readFixture(f))
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
		// Bytes past the last section are not LoadMatcher's. A v7 file saves
		// as version 8, so for one the property is held by the v8 file it
		// becomes, and by that file rendered back as version 7.
		again := saveBytes(t, m)
		if binary.LittleEndian.Uint32(raw[8:]) != matcherFormatVersion {
			if !bytes.HasPrefix(raw, v7Bytes(t, again)) {
				t.Fatalf("a v7 file loaded, and the v8 file it saves as does not render back to it")
			}
			m8, err := LoadMatcher(bytes.NewReader(again), opt)
			if err != nil {
				t.Fatalf("a file loaded, the v8 file it saved as did not: %v", err)
			}
			raw, again = again, saveBytes(t, m8)
		}
		if !bytes.HasPrefix(raw, again) {
			t.Fatalf("accepted %d bytes that save back as %d different ones", len(raw), len(again))
		}
	})
}
