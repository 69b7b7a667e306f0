package vector

import (
	"fmt"
	"unsafe"
)

// Batched one-query × N-rows kernels over flat Store arenas. Row i lives at
// rows[i*stride : i*stride+len(q)]; stride may exceed len(q). Each function
// fills out[j] for every j, reading row j (DotBatch) or row idxs[j] (the
// gather forms). For a row whose coordinates are all finite, out[j] is
// bit-identical to the corresponding single-pair call on the active kernel
// path — the single-pair kernels are the reference and the batch layer
// reorders no math. A row holding ±Inf or NaN is outside that contract on
// the portable path: its twins lay out only q's nonzeros (twin.go's layout)
// and never read a coordinate where q is zero, so a row with +Inf there
// scores the sum of its other products where Dot returns NaN. SparseRows'
// gather keeps the contract for every row: a row's descriptor marks a
// non-finite value.
//
// DotGather scores rows scattered through an arena far larger than the
// cache, as a graph walk does, in one assembly call per block on the AVX2
// path (kernels_amd64.s), which prefetches the rows ahead in idxs while it
// sums the current one. SparseRows has the same gather over bitmask rows —
// the store an index's walks and the exact join read — and CosineUnitGather
// there puts the merging distance on top of it.

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

// DotBatch sets out[j] = Dot(q, row j) for j in [0, len(out)). The AVX2 path
// is the gather kernel over rows 0, 1, 2, …, one call for up to len(coords)
// rows; the portable path lays q out once for every row (layout).
func DotBatch(q, rows []float32, stride int, out []float32) {
	checkStride(q, stride)
	if simdOn {
		if n := len(out); n > 0 {
			row(rows, stride, len(q), n-1) // the last row must lie in rows
			for lo := 0; lo < n; lo += len(coords) {
				dotGatherAVX2(unsafe.SliceData(q), unsafe.SliceData(rows[lo*stride:]), len(q), stride,
					&coords[0], min(n-lo, len(coords)), gatherAhead, &out[lo])
			}
		}
		return
	}
	var lb layoutBuf
	qs := newLayout(q, &lb)
	for j := range out {
		out[j] = qs.row(row(rows, stride, len(q), j))
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

// DotGather sets out[j] = Dot(q, row idxs[j]) for j in [0, len(out)). The
// portable path lays q out once for every row (layout).
func DotGather(q, rows []float32, stride int, idxs []int32, out []float32) {
	checkGather(q, rows, stride, idxs, out)
	if simdOn {
		dotGatherAVX2(unsafe.SliceData(q), unsafe.SliceData(rows), len(q), stride,
			unsafe.SliceData(idxs), len(idxs), gatherAhead, unsafe.SliceData(out))
		return
	}
	if len(idxs) == 0 {
		return
	}
	var lb layoutBuf
	qs := newLayout(q, &lb)
	for j, i := range idxs {
		out[j] = qs.row(row(rows, stride, len(q), int(i)))
	}
}
