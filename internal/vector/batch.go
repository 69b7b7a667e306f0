package vector

import (
	"fmt"
	"math"
	"unsafe"
)

// Batched one-query × N-rows kernels over flat Store arenas. Row i lives at
// rows[i*stride : i*stride+len(q)]; stride may exceed len(q). Each function
// fills out[j] for every j, reading row j (contiguous forms) or row idxs[j]
// (gather forms). out[j] is bit-identical to the corresponding single-pair
// call on the active kernel path — the single-pair kernels are the reference
// and the batch layer reorders no math. The contiguous forms buy their call
// sites one bound-checked setup and one closure instead of N. The gather
// forms — what a graph walk calls, over rows scattered through an arena far
// larger than the cache — are one assembly call per block on the AVX2 path
// (kernels_amd64.s), which prefetches the rows ahead in idxs while it sums
// the current one.

func checkBatch(q []float32, stride int, idxs []int32, out []float32) {
	if stride < len(q) {
		panic(fmt.Sprintf("vector: batch stride %d < query dim %d", stride, len(q)))
	}
	if idxs != nil && len(idxs) != len(out) {
		panic(fmt.Sprintf("vector: batch idxs len %d != out len %d", len(idxs), len(out)))
	}
}

// row returns row i of the arena as a capacity-clamped slice of dim d.
func row(rows []float32, stride, d, i int) []float32 {
	off := i * stride
	return rows[off : off+d : off+d]
}

// DotBatch sets out[j] = Dot(q, row j) for j in [0, len(out)).
func DotBatch(q, rows []float32, stride int, out []float32) {
	checkBatch(q, stride, nil, out)
	for j := range out {
		out[j] = Dot(q, row(rows, stride, len(q), j))
	}
}

// gatherAhead is how many rows ahead of the one being summed the gather
// kernels prefetch. Fixed from BenchmarkGather's sweep over arena sizes
// (docs/BENCHMARKING.md, "The gather kernel").
const gatherAhead = 2

// checkGather is checkBatch for the gather forms, which always take idxs: it
// also panics unless every index names a whole row of dim len(q) inside rows.
// The assembly gather kernels take raw pointers, so this is the only bounds
// check between a bad index and a wild read; it runs before the kernel on
// every call.
func checkGather(q, rows []float32, stride int, idxs []int32, out []float32) {
	checkBatch(q, stride, nil, out)
	if len(idxs) != len(out) {
		panic(fmt.Sprintf("vector: batch idxs len %d != out len %d", len(idxs), len(out)))
	}
	for _, i := range idxs {
		// (A product that wrapped is caught too: the kernel wraps the same
		// way, so an offset this accepts is the one it reads.)
		if off := int(i) * stride; i < 0 || off < 0 || off > len(rows)-len(q) {
			panic(fmt.Sprintf("vector: gather row %d out of range (stride %d, dim %d, arena of %d floats)", i, stride, len(q), len(rows)))
		}
	}
}

// DotGather sets out[j] = Dot(q, row idxs[j]) for j in [0, len(out)).
func DotGather(q, rows []float32, stride int, idxs []int32, out []float32) {
	checkGather(q, rows, stride, idxs, out)
	if simdOn {
		dotGatherAVX2(unsafe.SliceData(q), unsafe.SliceData(rows), len(q), stride,
			unsafe.SliceData(idxs), len(idxs), gatherAhead, unsafe.SliceData(out))
		return
	}
	for j, i := range idxs {
		out[j] = dotScalar(q, row(rows, stride, len(q), int(i)))
	}
}

// SquaredDistBatch sets out[j] = SquaredDist(q, row j) for j in [0, len(out)).
func SquaredDistBatch(q, rows []float32, stride int, out []float32) {
	checkBatch(q, stride, nil, out)
	for j := range out {
		out[j] = SquaredDist(q, row(rows, stride, len(q), j))
	}
}

// SquaredDistGather sets out[j] = SquaredDist(q, row idxs[j]).
func SquaredDistGather(q, rows []float32, stride int, idxs []int32, out []float32) {
	checkGather(q, rows, stride, idxs, out)
	if simdOn {
		squaredDistGatherAVX2(unsafe.SliceData(q), unsafe.SliceData(rows), len(q), stride,
			unsafe.SliceData(idxs), len(idxs), gatherAhead, unsafe.SliceData(out))
		return
	}
	for j, i := range idxs {
		out[j] = squaredDistScalar(q, row(rows, stride, len(q), int(i)))
	}
}

// CosineSimBatch sets out[j] = CosineSim(q, row j) for j in [0, len(out)).
func CosineSimBatch(q, rows []float32, stride int, out []float32) {
	checkBatch(q, stride, nil, out)
	for j := range out {
		out[j] = CosineSim(q, row(rows, stride, len(q), j))
	}
}

// QueryBatch is a distance kernel bound to a fixed query, evaluated against
// many arena rows at once. idxs == nil means contiguous rows 0..len(out)-1;
// otherwise out[j] is the distance to row idxs[j]. The query's own norm work
// is hoisted out of the per-row loop exactly as in QueryFunc.
type QueryBatch func(rows []float32, stride int, idxs []int32, out []float32)

// QueryBatchFunc returns the batched form of QueryFunc: out[j] is
// bit-identical to QueryFunc(q)(row j) on the same kernel path, for every
// metric. q is captured, not copied — it must stay unchanged while the
// kernel is in use.
func (m Metric) QueryBatchFunc(q []float32) QueryBatch {
	switch m {
	case Cosine:
		qn := math.Sqrt(float64(Dot(q, q)))
		return func(rows []float32, stride int, idxs []int32, out []float32) {
			checkBatch(q, stride, idxs, out)
			for j := range out {
				i := j
				if idxs != nil {
					i = int(idxs[j])
				}
				dot, nb := dotNormSq(q, row(rows, stride, len(q), i))
				if qn == 0 || nb == 0 {
					out[j] = 1 // CosineSim defines zero-vector similarity as 0
					continue
				}
				out[j] = 1 - dot/float32(qn*math.Sqrt(float64(nb)))
			}
		}
	case Euclidean:
		return func(rows []float32, stride int, idxs []int32, out []float32) {
			if idxs != nil {
				SquaredDistGather(q, rows, stride, idxs, out)
			} else {
				SquaredDistBatch(q, rows, stride, out)
			}
			for j := range out {
				out[j] = float32(math.Sqrt(float64(out[j])))
			}
		}
	case CosineUnit:
		return func(rows []float32, stride int, idxs []int32, out []float32) {
			if idxs != nil {
				DotGather(q, rows, stride, idxs, out)
			} else {
				DotBatch(q, rows, stride, out)
			}
			for j := range out {
				out[j] = 1 - out[j]
			}
		}
	default:
		panic("vector: unknown metric " + m.String())
	}
}
