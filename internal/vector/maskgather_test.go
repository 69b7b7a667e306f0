package vector

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// kernelPaths names, as SetKernels modes, every kernel path this CPU runs:
// the twins, AVX2, and AVX-512. A path the CPU lacks is logged and left out.
func kernelPaths(t testing.TB) []string {
	paths := []string{"scalar"}
	if !hasAVX2 {
		t.Logf("CPU lacks AVX2+FMA: the avx2 and avx512 legs are skipped")
		return paths
	}
	paths = append(paths, "avx2")
	if !hasAVX512 {
		t.Logf("CPU or OS lacks AVX-512F: the avx512 leg is skipped")
		return paths
	}
	return append(paths, "avx512")
}

// randSparseRows returns a store of n random rows of dimension dim and the
// dense rows it was given: each row keeps a coordinate with a probability
// drawn per row, so empty, full and every density between appear.
func randSparseRows(rng *rand.Rand, dim, n int) (*SparseRows, [][]float32) {
	s := NewSparseRows(dim)
	dense := make([][]float32, n)
	for i := range dense {
		v := make([]float32, dim)
		p := rng.Float64()
		switch i % 7 {
		case 0:
			p = 0
		case 1:
			p = 1
		}
		for c := range v {
			if rng.Float64() < p {
				v[c] = rng.Float32()*2 - 1
			}
		}
		dense[i] = v
		s.Append(v)
	}
	return s, dense
}

// chunkEdges names, for a store, the rows on both sides of every data chunk
// boundary, row 0, the last row, and some of them twice.
func chunkEdges(s *SparseRows) []int32 {
	idxs := []int32{0, int32(s.Len() - 1)}
	for i := 1; i < s.Len(); i++ {
		if chunk := s.Data().ChunkElems(); s.Offset(i)/chunk != s.Offset(i-1)/chunk {
			idxs = append(idxs, int32(i-1), int32(i))
		}
	}
	return append(idxs, idxs[len(idxs)-1], 0, int32(s.Len()-1))
}

// checkMaskGather holds s.DotGather and s.CosineUnitGather to the single-pair
// kernel on the dense rows bit for bit, on the active path, and returns the
// dots.
func checkMaskGather(t *testing.T, s *SparseRows, dense [][]float32, q []float32, idxs []int32) []float32 {
	t.Helper()
	out := make([]float32, len(idxs))
	cos := make([]float32, len(idxs))
	s.DotGather(q, idxs, out)
	s.CosineUnitGather(q, idxs, cos)
	for j, i := range idxs {
		if want := Dot(q, dense[i]); math.Float32bits(out[j]) != math.Float32bits(want) {
			t.Fatalf("%s dim %d: SparseRows.DotGather row %d = %v (%#08x), Dot = %v (%#08x)", Kernels(), s.Dim(), i, out[j], math.Float32bits(out[j]), want, math.Float32bits(want))
		}
		if want := CosineUnitDist(q, dense[i]); math.Float32bits(cos[j]) != math.Float32bits(want) {
			t.Fatalf("%s dim %d: SparseRows.CosineUnitGather row %d = %v, CosineUnitDist = %v", Kernels(), s.Dim(), i, cos[j], want)
		}
	}
	return out
}

// rowPtrs resolves idxs to the row addresses the assembly kernels take.
func rowPtrs(s *SparseRows, idxs []int32) []unsafe.Pointer {
	ptrs := make([]unsafe.Pointer, len(idxs))
	for j, i := range idxs {
		ptrs[j] = unsafe.Pointer(&s.words(int(i))[0])
	}
	return ptrs
}

// TestMaskGatherMatchesSinglePair holds the bitmask gather to the
// single-pair kernel on the expanded row, bit for bit, on every path the CPU
// has, across every regime of the kernels: dims 1…300 (no 32-wide pass,
// several, each 8-wide and tail remainder), rows of every density over
// several data chunks, blocks of 0…70 rows (past one kernel call's 32) with
// repeats; and, on the raw kernels, look-ahead distances from none to past
// the end of the block, which must change no bit and write nothing beyond
// out[n).
func TestMaskGatherMatchesSinglePair(t *testing.T) {
	const maxN = 70
	rng := rand.New(rand.NewSource(21))
	sentinel := float32(math.Inf(-1))
	for _, mode := range kernelPaths(t) {
		ForceKernels(t, mode)
		for dim := 1; dim <= 300; dim++ {
			s, dense := randSparseRows(rng, dim, 40+4096/dim)
			q := randVecOff(rng, dim, 1)
			checkMaskGather(t, s, dense, q, chunkEdges(s))
			idxs := make([]int32, maxN)
			for j := range idxs {
				idxs[j] = int32(rng.Intn(s.Len()))
			}
			idxs[7], idxs[8], idxs[40] = idxs[6], idxs[6], idxs[0]
			out := make([]float32, maxN+1)
			for _, n := range []int{0, 1, 2, 3, 9, 31, 32, 33, maxN} {
				out[n] = sentinel
				s.DotGather(q, idxs[:n], out[:n])
				for j := range n {
					if want := Dot(q, dense[idxs[j]]); math.Float32bits(out[j]) != math.Float32bits(want) {
						t.Fatalf("%s dim %d n %d: out[%d] = %v, Dot = %v", Kernels(), dim, n, j, out[j], want)
					}
				}
				if out[n] != sentinel {
					t.Fatalf("%s dim %d n %d: wrote past out[n)", Kernels(), dim, n)
				}
				if !simdOn || n == 0 || n > gatherBlock {
					continue
				}
				ptrs := rowPtrs(s, idxs[:n])
				for _, ahead := range []int{0, 1, gatherAhead, 5, n, n + 40} {
					clear(out[:n])
					if avx512 {
						dotMaskAVX512(&q[0], dim, &ptrs[0], 4*s.d.words, n, ahead, &out[0])
					} else {
						dotMaskAVX2(&q[0], dim, &ptrs[0], 4*s.d.words, n, ahead, &out[0], &maskExpand[0][0])
					}
					for j := range n {
						if want := Dot(q, dense[idxs[j]]); math.Float32bits(out[j]) != math.Float32bits(want) {
							t.Fatalf("%s raw kernel dim %d n %d ahead %d: out[%d] = %v, Dot = %v", Kernels(), dim, n, ahead, j, out[j], want)
						}
					}
					if out[n] != sentinel {
						t.Fatalf("%s raw kernel dim %d n %d ahead %d: wrote past out[n)", Kernels(), dim, n, ahead)
					}
				}
			}
		}
	}
}

// TestMaskGatherValidationPanics: the assembly reads raw pointers, so a bad
// index, a query of another dimension or mismatched lengths must be refused
// in Go first, on every path, wherever in idxs the bad index sits.
func TestMaskGatherValidationPanics(t *testing.T) {
	s := NewSparseRows(8)
	for range DescChunkRows + 3 {
		s.Append([]float32{1, 0, 2, 0, 3, 0, 4, 0})
	}
	q, out := make([]float32, 8), make([]float32, 2)
	for _, mode := range kernelPaths(t) {
		ForceKernels(t, mode)
		for _, bad := range [][]int32{{-1, 0}, {0, int32(s.Len())}, {0, DescChunkRows*2 - 1}, {math.MaxInt32, 0}, {math.MinInt32, 0}} {
			mustPanic(t, "SparseRows.DotGather bad index", func() { s.DotGather(q, bad, out) })
			mustPanic(t, "SparseRows.CosineUnitGather bad index", func() { s.CosineUnitGather(q, bad, out) })
		}
		mustPanic(t, "SparseRows.DotGather query dim", func() { s.DotGather(q[:7], []int32{0, 1}, out) })
		mustPanic(t, "SparseRows.DotGather idxs/out mismatch", func() { s.DotGather(q, []int32{0}, out) })
	}
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	f()
}

// maskGatherSeeds are FuzzMaskGather's hand-picked bit patterns: ±0, sNaN
// and qNaN with payloads, subnormals, ±Inf, the largest finite values, and
// ordinary numbers.
var maskGatherSeeds = []uint32{
	0x00000000, 0x80000000, // +0, −0
	0x7f800001, 0xff812345, // signalling NaNs
	0x7fc00000, 0xffc54321, // quiet NaNs
	0x00000001, 0x807fffff, // subnormals
	0x7f800000, 0xff800000, // ±Inf
	0x7f7fffff, 0xff7fffff, // ±max finite
	0x3f800000, 0xbf800000, 0x3eaaaaab, // 1, −1, 1/3
}

// FuzzMaskGather holds the bitmask gather to Dot on the expanded row, bit for
// bit — NaN payloads included — on every kernel path the CPU has. The input
// is read as a dimension (1…300, so multiples of 8 and 32 and every
// remainder), a query and rows of raw float32 bits — any bits: −0, NaNs,
// subnormals and ±Inf are all part of the contract — and an index block.
// Each row keeps the coordinates the input bits leave nonzero, so empty and
// full rows come from zero and dense input.
func FuzzMaskGather(f *testing.F) {
	f.Add(uint16(8), []byte{})
	f.Add(uint16(31), make([]byte, 4*31*3))
	for _, dim := range []uint16{1, 7, 9, 32, 33, 64, 256, 300} {
		var b []byte
		for i := range 5 * int(dim) {
			b = binary.LittleEndian.AppendUint32(b, maskGatherSeeds[(i*7+int(dim))%len(maskGatherSeeds)])
		}
		f.Add(dim, b)
	}
	f.Fuzz(func(t *testing.T, d uint16, raw []byte) {
		dim := 1 + int(d)%300
		word := func(i int) float32 {
			if len(raw) < 4 {
				return 0
			}
			i = 4 * (i % (len(raw) / 4))
			return math.Float32frombits(binary.LittleEndian.Uint32(raw[i:]))
		}
		q := make([]float32, dim)
		for c := range q {
			q[c] = word(c)
		}
		s := NewSparseRows(dim)
		dense := make([][]float32, 1+len(raw)/(4*dim))
		for i := range dense {
			v := make([]float32, dim)
			for c := range v {
				// Rows past the input's end read it again from a shifted
				// start; the last row is empty.
				if i < len(dense)-1 {
					v[c] = word(dim*(i+1) + c + i)
				}
			}
			dense[i] = v
			s.Append(v)
		}
		idxs := make([]int32, min(len(raw)+1, 40))
		for j := range idxs {
			if j < len(raw) {
				idxs[j] = int32(int(raw[j]) % len(dense))
			} else {
				idxs[j] = int32(j % len(dense))
			}
		}
		for _, mode := range kernelPaths(t) {
			ForceKernels(t, mode)
			checkMaskGather(t, s, dense, q, idxs)
		}
	})
}
