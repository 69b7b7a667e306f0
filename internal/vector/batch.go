package vector

import (
	"fmt"
	"unsafe"
)

// Batched one-query × N-rows kernels over flat Store arenas. Row i lives at
// rows[i*stride : i*stride+len(q)]; stride may exceed len(q). Each function
// fills out[j] for every j, reading row j (DotBatch) or row idxs[j] (the
// gather forms). out[j] is bit-identical to the corresponding single-pair
// call on the active kernel path — the single-pair kernels are the reference
// and the batch layer reorders no math. DotGather — what a graph walk calls,
// over rows scattered through an arena far larger than the cache — is one
// assembly call per block on the AVX2 path (kernels_amd64.s), which
// prefetches the rows ahead in idxs while it sums the current one.
// CosineUnitGather puts the merging distance on top of it.

func checkStride(q []float32, stride int) {
	if stride < len(q) {
		panic(fmt.Sprintf("vector: batch stride %d < query dim %d", stride, len(q)))
	}
}

// row returns row i of the arena as a capacity-clamped slice of dim d.
func row(rows []float32, stride, d, i int) []float32 {
	off := i * stride
	return rows[off : off+d : off+d]
}

// DotBatch sets out[j] = Dot(q, row j) for j in [0, len(out)).
func DotBatch(q, rows []float32, stride int, out []float32) {
	checkStride(q, stride)
	for j := range out {
		out[j] = Dot(q, row(rows, stride, len(q), j))
	}
}

// gatherAhead is how many rows ahead of the one being summed the gather
// kernel prefetches. Fixed from BenchmarkGather's sweep over arena sizes
// (docs/BENCHMARKING.md, "The gather kernel").
const gatherAhead = 2

// checkGather panics unless stride fits q, idxs and out have one length, and
// every index names a whole row of dim len(q) inside rows. The assembly
// gather kernel takes raw pointers, so this is the only bounds check between
// a bad index and a wild read; it runs before the kernel on every call.
func checkGather(q, rows []float32, stride int, idxs []int32, out []float32) {
	checkStride(q, stride)
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

// CosineUnitGather sets out[j] to CosineUnitDist(q, row idxs[j]) — the one
// way to score a query against stored rows, in a graph walk and in an exact
// scan alike. out[j] is bit-identical to the single-pair call on the active
// kernel path, so the distance from a to b has the bits of the distance from
// b to a (an index caches a link's distance in one direction and recomputes
// it in the other). q is only read, and may alias a row of the arena.
func CosineUnitGather(q, rows []float32, stride int, idxs []int32, out []float32) {
	DotGather(q, rows, stride, idxs, out)
	for j := range out {
		out[j] = 1 - out[j]
	}
}
