package vector

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// benchDim matches embed.DefaultDim: the dimensionality every hot-path
// distance call in the pipeline actually runs at.
const benchDim = 256

func benchVecs(n int) [][]float32 {
	rng := rand.New(rand.NewSource(1))
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, benchDim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		out[i] = Normalize(v)
	}
	return out
}

var sinkF32 float32

// BenchmarkPack packs rows at the encoder's density (about 66 of 256
// coordinates nonzero), cycling over 4000 rows so that no branch predictor
// learns their masks, as Append packs each embedding.
func BenchmarkPack(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float32, 4000)
	for i := range rows {
		rows[i] = make([]float32, benchDim)
		for range 66 {
			rows[i][rng.Intn(benchDim)] = float32(rng.NormFloat64())
		}
	}
	d := NewRowData(benchDim)
	w := make([]uint32, d.words+benchDim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.pack(w, rows[i%len(rows)])
	}
}

func BenchmarkDot(b *testing.B) {
	vs := benchVecs(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkF32 = Dot(vs[0], vs[1])
	}
}

func BenchmarkSquaredDist(b *testing.B) {
	vs := benchVecs(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkF32 = SquaredDist(vs[0], vs[1])
	}
}

// BenchmarkDotScalar pins the portable kernel regardless of CPU, so the
// SIMD speedup is measurable on one box (compare against BenchmarkDot,
// which runs the dispatched path).
func BenchmarkDotScalar(b *testing.B) {
	vs := benchVecs(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkF32 = dotScalar(vs[0], vs[1])
	}
}

// BenchmarkDotDims tracks the dispatched kernel across the dimensionalities
// the pipeline and its ablations actually use (64 = small encoders, 256 =
// embed.DefaultDim, 300 = fastText-style, 1000 = issue property-suite max).
func BenchmarkDotDims(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, dim := range []int{64, 256, 300, 1000} {
		x := make([]float32, dim)
		y := make([]float32, dim)
		for j := range x {
			x[j] = float32(rng.NormFloat64())
			y[j] = float32(rng.NormFloat64())
		}
		b.Run(fmt.Sprintf("dim%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkF32 = Dot(x, y)
			}
		})
	}
}

// BenchmarkDotBatch is the one-query×N-rows shape HNSW neighbour expansion
// and the matcher re-rank now use: 32 rows approximates a layer-0 block
// (2M with the default M=16).
func BenchmarkDotBatch(b *testing.B) {
	const rows = 32
	rng := rand.New(rand.NewSource(3))
	arena := make([]float32, rows*benchDim)
	for i := range arena {
		arena[i] = float32(rng.NormFloat64())
	}
	q := benchVecs(1)[0]
	out := make([]float32, rows)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DotBatch(q, arena, benchDim, out)
	}
	sinkF32 = out[0]
}

// BenchmarkMetricGather is BenchmarkDotBatch's shape through
// SparseRows.CosineUnitGather over dense rows: what one neighbour block
// costs a graph walk.
func BenchmarkMetricGather(b *testing.B) {
	const rows = 32
	rng := rand.New(rand.NewSource(4))
	arena := make([]float32, rows*benchDim)
	for i := range arena {
		arena[i] = float32(rng.NormFloat64())
	}
	idxs := make([]int32, rows)
	for i := range idxs {
		idxs[i] = int32(i)
	}
	q, s := benchVecs(1)[0], NewSparseRows(benchDim)
	for i := range rows {
		s.Append(row(arena, benchDim, benchDim, i))
	}
	out := make([]float32, rows)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.CosineUnitGather(q, idxs, out)
	}
	sinkF32 = out[0]
}

// BenchmarkGather is the graph walk's kernel shape — one query against
// blocks of 24 rows (a layer-0 link block at the matcher's M = 12) gathered at
// random from an arena — varied over the arena's size, which is what decides
// whether a row comes from L2, the shared last-level cache or memory, and
// over the kernel: the per-row single-pair loop DotGather used to be, the
// fused call with its look-ahead off (ahead = 0: the look-ahead row is the
// current one), and the fused call as DotGather issues it (gatherAhead). One
// iteration is a piece of 256 blocks; ns/row is the median piece and
// min-/max-ns/row its fastest and slowest, because on a shared box the mean
// of a run is mostly the neighbours (docs/BENCHMARKING.md, "The gather
// kernel", has the table and the sweep that fixed gatherAhead). The 256 MB
// arena is skipped under -short.
//
// The bitmask-nodes and bitmask-shared legs gather the same node rows, laid
// out as a shard's apply lays them (shardLayout), from a node table of its
// own and from one that shares its data arena with the entity rows; they
// run up to 64 MB.
func BenchmarkGather(b *testing.B) {
	if !hasAVX2 {
		b.Skip("CPU lacks AVX2+FMA")
	}
	const block, blocks = 24, 256
	q := benchVecs(1)[0]
	out := make([]float32, block)
	// The bitmask legs gather as many rows of a SparseRows store, each with
	// about 90 of its benchDim coordinates set (a centroid's density), under
	// the kernel path their mode forces.
	var sparse, nodes, shared *SparseRows
	bitmask := func(arena []float32, blk []int32) { sparse.DotGather(q, blk, out) }
	nodeOnly := func(arena []float32, blk []int32) { nodes.DotGather(q, blk, out) }
	onShared := func(arena []float32, blk []int32) { shared.DotGather(q, blk, out) }
	kernels := []struct {
		name  string
		score func(arena []float32, blk []int32)
		mode  string
	}{
		{"kernel=single-pair", func(arena []float32, blk []int32) {
			for j, i := range blk {
				out[j] = Dot(q, row(arena, benchDim, benchDim, int(i)))
			}
		}, ""},
		{"kernel=fused/lookahead=off", func(arena []float32, blk []int32) {
			dotGatherAVX2(unsafe.SliceData(q), unsafe.SliceData(arena), benchDim, benchDim, unsafe.SliceData(blk), block, 0, unsafe.SliceData(out))
		}, ""},
		{"kernel=fused/lookahead=on", func(arena []float32, blk []int32) {
			DotGather(q, arena, benchDim, blk, out)
		}, ""},
		{"kernel=bitmask/path=avx512", bitmask, "avx512"},
		{"kernel=bitmask/path=avx2", bitmask, "avx2"},
		{"kernel=bitmask/path=scalar", bitmask, "scalar"},
		{"kernel=bitmask-nodes/path=avx512", nodeOnly, "avx512"},
		{"kernel=bitmask-shared/path=avx512", onShared, "avx512"},
		{"kernel=bitmask-nodes/path=avx2", nodeOnly, "avx2"},
		{"kernel=bitmask-shared/path=avx2", onShared, "avx2"},
	}
	for _, mb := range []int{1, 24, 64, 256} {
		if testing.Short() && mb > 64 {
			continue
		}
		rows := mb << 20 / (4 * benchDim)
		arena := make([]float32, rows*benchDim)
		for i := range arena {
			arena[i] = float32(i&1023) / 1024
		}
		rng := rand.New(rand.NewSource(5))
		sparse = NewSparseRows(benchDim)
		v := make([]float32, benchDim)
		for range rows {
			for c := range v {
				v[c] = 0
				if rng.Intn(benchDim) < 90 {
					v[c] = rng.Float32() - 0.5
				}
			}
			sparse.Append(v)
		}
		nodes, shared = nil, nil
		if mb <= 64 {
			nodes, shared = shardLayout(rng, rows)
		}
		for _, k := range kernels {
			if k.mode == "avx512" && !hasAVX512 {
				b.Logf("CPU or OS lacks AVX-512F: %s skipped", k.name)
				continue
			}
			if strings.HasPrefix(k.name, "kernel=bitmask-") && nodes == nil {
				continue
			}
			b.Run(fmt.Sprintf("arena=%dMB/%s", mb, k.name), func(b *testing.B) {
				if k.mode != "" {
					ForceKernels(b, k.mode)
				}
				idxs := make([]int32, block*blocks)
				pieces := make([]float64, 0, b.N)
				for i := 0; i < b.N; i++ {
					for j := range idxs {
						idxs[j] = int32(rng.Intn(rows))
					}
					t0 := time.Now()
					for p := 0; p < len(idxs); p += block {
						k.score(arena, idxs[p:p+block])
					}
					pieces = append(pieces, float64(time.Since(t0).Nanoseconds())/float64(len(idxs)))
				}
				slices.Sort(pieces)
				b.ReportMetric(pieces[len(pieces)/2], "ns/row")
				b.ReportMetric(pieces[0], "min-ns/row")
				b.ReportMetric(pieces[len(pieces)-1], "max-ns/row")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
	sinkF32 = out[0]
}

// shardLayout returns the node rows of a shard that has indexed nodes rows
// twice over: in a node table on its own data arena, every node its own
// words, and in one that shares its arena with the entity rows, as a
// shard's apply lays them out. A batch appends 16 entity rows (about 63 of
// benchDim coordinates set, the encoder's density), then 7 nodes for new
// one-member tuples — 7 of those entity rows, which the shared table names
// with AppendShared — and 8 recomputed centroids of about 90 coordinates:
// serve_ingest's mix, where 43 % of the nodes are singletons'.
func shardLayout(rng *rand.Rand, nodes int) (own, shared *SparseRows) {
	vec := func(set int) []float32 {
		v := make([]float32, benchDim)
		for c := range v {
			if rng.Intn(benchDim) < set {
				v[c] = rng.Float32() - 0.5
			}
		}
		return v
	}
	own = NewSparseRows(benchDim)
	ents := NewSparseRows(benchDim)
	shared = NewSparseRowsOn(ents.Data())
	for own.Len() < nodes {
		first := ents.Len()
		var batch [][]float32
		for range 16 {
			batch = append(batch, vec(63))
			ents.Append(batch[len(batch)-1])
		}
		for k := 0; k < 7 && own.Len() < nodes; k++ {
			own.Append(batch[k])
			shared.AppendShared(batch[k], ents.Ref(first+k))
		}
		for k := 0; k < 8 && own.Len() < nodes; k++ {
			v := vec(90)
			own.Append(v)
			shared.Append(v)
		}
	}
	return own, shared
}
