package vector

import (
	"fmt"
	"math/rand"
	"slices"
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
// CosineUnitGather: what one neighbour block costs a graph walk.
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
	q := benchVecs(1)[0]
	out := make([]float32, rows)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CosineUnitGather(q, arena, benchDim, idxs, out)
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
func BenchmarkGather(b *testing.B) {
	if !hasAVX2 {
		b.Skip("CPU lacks AVX2+FMA")
	}
	const block, blocks = 24, 256
	q := benchVecs(1)[0]
	out := make([]float32, block)
	kernels := []struct {
		name  string
		score func(arena []float32, blk []int32)
	}{
		{"kernel=single-pair", func(arena []float32, blk []int32) {
			for j, i := range blk {
				out[j] = Dot(q, row(arena, benchDim, benchDim, int(i)))
			}
		}},
		{"kernel=fused/lookahead=off", func(arena []float32, blk []int32) {
			dotGatherAVX2(unsafe.SliceData(q), unsafe.SliceData(arena), benchDim, benchDim, unsafe.SliceData(blk), block, 0, unsafe.SliceData(out))
		}},
		{"kernel=fused/lookahead=on", func(arena []float32, blk []int32) {
			DotGather(q, arena, benchDim, blk, out)
		}},
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
		for _, k := range kernels {
			b.Run(fmt.Sprintf("arena=%dMB/%s", mb, k.name), func(b *testing.B) {
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
