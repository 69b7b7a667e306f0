package multiem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
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
func checkCentroidNodes(tuples *tupleTable, index *hnsw.Index, entVecs *vector.Store) ([][]float32, error) {
	ids := index.IDs()
	last := make(map[int]int, tuples.len())
	for node, id := range ids {
		last[id] = node
	}
	want := make([]float32, index.Dim())
	out := make([][]float32, tuples.len())
	for l := 0; l < tuples.len(); l++ {
		ts := tuples.at(l)
		node := int(ts.node)
		if node < 0 || node >= len(ids) || ids[node] != l {
			return nil, fmt.Errorf("tuple %d points at node %d, which is not one of its entries", l, node)
		}
		if last[l] != node {
			return nil, fmt.Errorf("tuple %d points at node %d, but node %d is its newest entry", l, node, last[l])
		}
		centroidInto(want, ts.members, entVecs)
		got := index.Vector(node)
		if !sameBits(got, want) {
			return nil, fmt.Errorf("tuple %d: node %d holds %v, members give %v", l, node, got, want)
		}
		out[l] = append([]float32(nil), got...)
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
		const idsOff = 8 + 4 + 4*4 + 8 + 4*4 // magic, version, config, shape
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

// TestMatcherHeapBudget holds the serving heap to one vector per entity and
// one per index entry. With a second centroid arena beside the index — one
// more row per index entry — the same state needs (entities + 2 × entries)
// rows and misses the budget.
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
	s := m.Stats()
	d, rows = nil, nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)

	// 1.5: link blocks and their cached distances cost an index entry about
	// a quarter of its vector at dim 256, and the arenas grow geometrically.
	// This state reads 1.35 with one arena and 1.73 with two.
	rowsHeld := s.Entities + s.IndexSize
	budget := uint64(1.5 * float64(rowsHeld*s.Dim*4))
	got := after.HeapAlloc - before.HeapAlloc
	t.Logf("%d entities + %d index entries (%d tuples): heap %d KiB, budget %d KiB, a second arena would add %d KiB",
		s.Entities, s.IndexSize, s.Tuples, got>>10, budget>>10, s.IndexSize*s.Dim*4>>10)
	if got > budget {
		t.Fatalf("matcher holds %d bytes for %d vectors of dim %d; budget %d", got, rowsHeld, s.Dim, budget)
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
		var fresh bytes.Buffer
		if err := m.Save(&fresh); err != nil {
			f.Fatal(err)
		}
		f.Add(fresh.Bytes())
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
		var stale bytes.Buffer
		if err := m.Save(&stale); err != nil {
			f.Fatal(err)
		}
		f.Add(stale.Bytes())
	}
	// A header that promises 2^20 schema strings and 4096 shards.
	f.Add(append(append([]byte(nil), matcherMagic[:]...), 4, 0, 0, 0, dim, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0, 16, 0))
	// Version 4, which the loader still reads: the file the last v4 writer
	// left, and that header again under the current version.
	v4, err := os.ReadFile(v4FixturePath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v4)
	f.Add(append(append([]byte(nil), matcherMagic[:]...), matcherFormatVersion, 0, 0, 0, dim, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0, 16, 0))

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
			wrongDim := len(raw) >= 16 && binary.LittleEndian.Uint32(raw[12:]) != dim
			if m != nil || !(errors.Is(err, ErrCorruptState) || errors.Is(err, ErrFormatVersion) || wrongDim) {
				t.Fatalf("untyped failure: %v", err)
			}
			return
		}
		// Bytes past the last section are not LoadMatcher's. A version-4
		// file saves as version 5, so for one the property is held by the
		// v5 file it becomes.
		again := saveBytes(t, m)
		if binary.LittleEndian.Uint32(raw[8:]) == matcherFormatV4 {
			m5, err := LoadMatcher(bytes.NewReader(again), opt)
			if err != nil {
				t.Fatalf("a v4 file loaded, the v5 file it saved as did not: %v", err)
			}
			raw, again = again, saveBytes(t, m5)
		}
		if !bytes.HasPrefix(raw, again) {
			t.Fatalf("accepted %d bytes that save back as %d different ones", len(raw), len(again))
		}
	})
}
