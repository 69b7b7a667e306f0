//go:build linux && amd64

package vector

import (
	"math"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// TestGatherGuardPage is the bounds check the race detector and the slice
// bounds checker cannot give a raw-pointer kernel: the arena is mapped so its
// last row ends on the last byte of a page and the page after it is
// PROT_NONE, so a kernel that loads even one byte past a row it was asked for
// faults (turned into a test failure, not a crash). The last row is gathered
// alone, as the last index, and in every position the look-ahead reaches for
// it; results still carry the single-pair bits.
func TestGatherGuardPage(t *testing.T) {
	if !hasAVX2 {
		t.Skip("CPU lacks AVX2+FMA")
	}
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 3*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[2*page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))

	const rows = 6
	for _, dim := range []int{1, 7, 8, 9, 31, 32, 33, 40, 63, 64, 256, 259} {
		for _, stride := range []int{dim, dim + 3} {
			// rows*stride floats, of which the last row's dim end at the
			// guard page (a padded stride's tail would lie inside it, and is
			// never part of a row).
			floats := (rows-1)*stride + dim
			arena := unsafe.Slice((*float32)(unsafe.Pointer(&mem[2*page-4*floats])), floats)
			for i := range arena {
				arena[i] = float32(i%13) - 6
			}
			q := make([]float32, dim)
			for i := range q {
				q[i] = float32(i%5) - 2
			}
			const last = rows - 1
			for _, idxs := range [][]int32{
				{last},
				{0, last},
				{last, 0},
				{0, 1, last},       // looked ahead from row 0 at gatherAhead = 2
				{last, 1, last, 2}, // summed, then looked ahead, then summed again
				{0, 1, 2, 3, 4, last, last, last},
			} {
				out := make([]float32, len(idxs))
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("dim %d stride %d idxs %v: kernel faulted past the arena: %v", dim, stride, idxs, r)
						}
					}()
					DotGather(q, arena, stride, idxs, out)
					for j, i := range idxs {
						if want := Dot(q, row(arena, stride, dim, int(i))); math.Float32bits(out[j]) != math.Float32bits(want) {
							t.Fatalf("dim %d stride %d: DotGather[%d] = %v, Dot = %v", dim, stride, j, out[j], want)
						}
					}
				}()
			}
		}
	}
}
