//go:build linux && amd64

package vector

import (
	"math"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guardPage maps three pages whose last is PROT_NONE and returns the two
// readable ones, with faults turned into panics until the test ends.
func guardPage(t *testing.T) []byte {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 3*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[2*page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	prev := debug.SetPanicOnFault(true)
	t.Cleanup(func() { debug.SetPanicOnFault(prev) })
	return mem[:2*page]
}

// TestGatherGuardPage is the bounds check the race detector and the slice
// bounds checker cannot give a raw-pointer kernel: the arena is mapped so its
// last row ends on the last byte of a page and the page after it is
// PROT_NONE, so a kernel that loads even one byte past a row it was asked for
// faults (turned into a test failure, not a crash). The last row is gathered
// alone, as the last index, and in every position the look-ahead reaches for
// it; results still carry the single-pair bits. The bitmask-row kernels get
// the same check (maskGuardPage).
func TestGatherGuardPage(t *testing.T) {
	if !hasAVX2 {
		t.Skip("CPU lacks AVX2+FMA")
	}
	mem := guardPage(t)
	const rows = 6
	for _, dim := range []int{1, 7, 8, 9, 31, 32, 33, 40, 63, 64, 256, 259} {
		for _, stride := range []int{dim, dim + 3} {
			// rows*stride floats, of which the last row's dim end at the
			// guard page (a padded stride's tail would lie inside it, and is
			// never part of a row).
			floats := (rows-1)*stride + dim
			arena := unsafe.Slice((*float32)(unsafe.Pointer(&mem[len(mem)-4*floats])), floats)
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
	maskGuardPage(t, mem)
}

// maskGuardPage is TestGatherGuardPage for the bitmask-row kernels, on each
// assembly path the CPU has: a row — its mask, then its packed
// values — ends on the last byte before the guard page, so a kernel that
// fetched a whole 8- or 16-lane group of values where fewer are stored, or
// read one mask byte too many, faults. Empty rows (the mask alone), full
// rows, a row holding only its last coordinate and partly filled ones are
// each gathered alone, beside other rows, and from every position the
// look-ahead reaches. The row expansion (CopyTo's kernels) reads the same
// guarded row, and writes a dense row that ends on the guard page.
func maskGuardPage(t *testing.T, mem []byte) {
	rng := rand.New(rand.NewSource(3))
	for _, mode := range kernelPaths(t)[1:] {
		ForceKernels(t, mode)
		for _, dim := range []int{1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40, 63, 64, 65, 256, 259, 300} {
			q := randVecOff(rng, dim, 0)
			last := make([]float32, dim)
			last[dim-1] = 0.5
			for _, dense := range [][]float32{make([]float32, dim), randVecOff(rng, dim, 0), last, sparseRowOf(rng, dim, 0.3), sparseRowOf(rng, dim, 0.9)} {
				s, second := NewSparseRows(dim), randVecOff(rng, dim, 0)
				s.Append(dense)
				s.Append(second)
				mask, vals := s.Row(0)
				n := len(mask) + len(vals)
				row := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[len(mem)-4*n])), n)
				copy(row, mask)
				copy(floats(row[len(mask):]), vals)
				guarded, other := unsafe.Pointer(&row[0]), unsafe.Pointer(&s.words(1)[0])
				want := []float32{Dot(q, dense), Dot(q, second)}
				// The expansion reads the guarded row, then writes a dense
				// one that ends on the guard page.
				expand := func(dst []float32, src []uint32) {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s dim %d: expansion faulted past the row or dst: %v", Kernels(), dim, r)
						}
					}()
					if avx512 {
						expandMaskAVX512(&dst[0], &src[0], dim, 4*len(mask), false)
					} else {
						expandMaskAVX2(&dst[0], &src[0], dim, 4*len(mask), false, &maskExpand[0][0])
					}
					if !sameBits(dst, dense) {
						t.Fatalf("%s dim %d: the row expands to %v, want %v", Kernels(), dim, dst, dense)
					}
				}
				expand(make([]float32, dim), row)
				for _, rows := range [][]int{{0}, {1, 0}, {0, 1}, {1, 1, 0}, {0, 1, 0, 1}, {1, 1, 1, 1, 0, 0, 0}} {
					ptrs := make([]unsafe.Pointer, len(rows))
					for j, r := range rows {
						ptrs[j] = []unsafe.Pointer{guarded, other}[r]
					}
					out := make([]float32, len(rows))
					for _, ahead := range []int{0, 1, gatherAhead, len(rows)} {
						func() {
							defer func() {
								if r := recover(); r != nil {
									t.Fatalf("%s dim %d rows %v ahead %d: kernel faulted past the row: %v", Kernels(), dim, rows, ahead, r)
								}
							}()
							if avx512 {
								dotMaskAVX512(&q[0], dim, &ptrs[0], 4*len(mask), len(rows), ahead, &out[0])
							} else {
								dotMaskAVX2(&q[0], dim, &ptrs[0], 4*len(mask), len(rows), ahead, &out[0], &maskExpand[0][0])
							}
						}()
						for j, r := range rows {
							if math.Float32bits(out[j]) != math.Float32bits(want[r]) {
								t.Fatalf("%s dim %d rows %v: out[%d] = %v, Dot = %v", Kernels(), dim, rows, j, out[j], want[r])
							}
						}
					}
				}
				expand(unsafe.Slice((*float32)(unsafe.Pointer(&mem[len(mem)-4*dim])), dim), s.words(0))
			}
		}
	}
}
