package binio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	WriteU32(bw, 0xDEADBEEF)
	WriteI32(bw, -7)
	WriteI64(bw, -1<<40)
	WriteString(bw, "hello world")
	WriteF32(bw, 3.25)
	WriteWords(bw, []float32{1, -2, 0.5})
	WriteWords(bw, []int32{-1, 1 << 30})
	WriteInts(bw, []int{-5, 1 << 40})
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(buf.Bytes())
	if got := r.U32(); got != 0xDEADBEEF {
		t.Fatalf("U32 = %#x", got)
	}
	if got := r.I32(); got != -7 {
		t.Fatalf("I32 = %d", got)
	}
	if got := r.I64(); got != -1<<40 {
		t.Fatalf("I64 = %d", got)
	}
	if got := r.Str(); got != "hello world" {
		t.Fatalf("Str = %q", got)
	}
	if got := r.F32(); got != 3.25 {
		t.Fatalf("F32 = %v", got)
	}
	f := make([]float32, 3)
	if ReadWords(r, f); f[0] != 1 || f[1] != -2 || f[2] != 0.5 {
		t.Fatalf("ReadWords = %v", f)
	}
	i32 := []int32{0, 9}
	if ReadWords(r, i32[:1]); i32[0] != -1 || i32[1] != 9 {
		t.Fatalf("ReadWords = %v", i32)
	}
	if ReadWords(r, i32[1:]); i32[1] != 1<<30 {
		t.Fatalf("ReadWords = %v", i32)
	}
	if ints := r.Ints(2); len(ints) != 2 || ints[0] != -5 || ints[1] != 1<<40 {
		t.Fatalf("Ints = %v", ints)
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("Err = %v with %d bytes left", r.Err(), r.Len())
	}
}

// TestStickyError: after the first failure every read returns zero values
// and the original error is preserved.
func TestStickyError(t *testing.T) {
	r := NewReader([]byte("\x01\x02"))
	if r.U32(); !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("short read set %v, want io.ErrUnexpectedEOF", r.Err())
	}
	first := r.Err()
	if got := r.I64(); got != 0 {
		t.Fatalf("read after error returned %d", got)
	}
	if got := r.Str(); got != "" {
		t.Fatalf("Str after error returned %q", got)
	}
	if got := r.Next(1); got != nil {
		t.Fatalf("Next after error returned %v", got)
	}
	dst := []int32{7}
	if ReadWords(r, dst); dst[0] != 7 {
		t.Fatal("ReadWords after error wrote to dst")
	}
	if r.Ints(1) != nil {
		t.Fatal("a bulk read after error allocated")
	}
	if r.Err() != first {
		t.Fatalf("error was overwritten: %v", r.Err())
	}
}

// TestStrRejectsHugeLength: a corrupt length prefix must error out instead
// of allocating.
func TestStrRejectsHugeLength(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	WriteU32(bw, 1<<30)
	bw.WriteString("short")
	bw.Flush()
	r := NewReader(buf.Bytes())
	if got := r.Str(); got != "" || r.Err() == nil {
		t.Fatalf("Str = %q, Err = %v: oversized string length must be rejected", got, r.Err())
	}
}

// TestCountBoundedByBytesLeft is the hostile-input rule: a count is accepted
// only when the bytes behind it could hold that many elements.
func TestCountBoundedByBytesLeft(t *testing.T) {
	file := func(count int32, tail int) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(count))
		return append(b, make([]byte, tail)...)
	}
	for _, tc := range []struct {
		count      int32
		tail, elem int
		ok         bool
	}{
		{0, 0, 8, true},
		{3, 24, 8, true},
		{3, 23, 8, false},
		{4, 24, 8, false},
		{-1, 1 << 10, 1, false},
		{math.MaxInt32, 1 << 10, 1, false},
		{math.MaxInt32, 1 << 10, 1 << 20, false},
	} {
		r := NewReader(file(tc.count, tc.tail))
		got := r.Count(tc.elem)
		if (r.Err() == nil) != tc.ok {
			t.Fatalf("Count(%d) of %d over %d bytes: err %v, want ok=%v", tc.elem, tc.count, tc.tail, r.Err(), tc.ok)
		}
		if want := int(tc.count); tc.ok && got != want || !tc.ok && got != 0 {
			t.Fatalf("Count(%d) of %d over %d bytes returned %d", tc.elem, tc.count, tc.tail, got)
		}
	}
	if r := NewReader([]byte{1, 0}); r.Count(1) != 0 || !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("Count over a cut prefix: %v", r.Err())
	}
}

// TestNextAliasesInput: a section handed out by Next is the input's memory,
// capped so an append cannot run into what follows.
func TestNextAliasesInput(t *testing.T) {
	in := []byte("abcdef")
	r := NewReader(in)
	a := r.Next(2)
	if &a[0] != &in[0] || cap(a) != 2 || r.Len() != 4 {
		t.Fatalf("Next(2): aliased=%v cap=%d left=%d", &a[0] == &in[0], cap(a), r.Len())
	}
	if r.Next(-1) != nil || r.Err() == nil {
		t.Fatal("negative length must set the error")
	}
}

// TestBulkMatchesElementwise compares the bulk paths with encoding/binary
// element by element, NaN payloads included, and with words4, the loop a
// big-endian host takes in their place.
func TestBulkMatchesElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 1023, 1024, 1025, 5000} {
		f := make([]float32, n)
		i32 := make([]int32, n)
		var want []byte
		for i := range f {
			f[i] = math.Float32frombits(rng.Uint32())
			want = binary.LittleEndian.AppendUint32(want, math.Float32bits(f[i]))
		}
		for i := range i32 {
			i32[i] = int32(rng.Uint32())
			want = binary.LittleEndian.AppendUint32(want, uint32(i32[i]))
		}
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		WriteWords(bw, f)
		WriteWords(bw, i32)
		bw.Flush()
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("n=%d: bulk write differs from element-wise little-endian", n)
		}

		// Read back from an odd address: the input is never aligned for
		// the reader's sake.
		r := NewReader(append([]byte{0}, want...)[1:])
		gotF, gotI := make([]float32, n), make([]int32, n)
		ReadWords(r, gotF)
		if ReadWords(r, gotI); r.Err() != nil || r.Len() != 0 {
			t.Fatalf("n=%d: Err %v, %d left", n, r.Err(), r.Len())
		}
		for i := range f {
			if math.Float32bits(gotF[i]) != math.Float32bits(f[i]) || gotI[i] != i32[i] {
				t.Fatalf("n=%d: element %d read back as %x / %d", n, i, math.Float32bits(gotF[i]), gotI[i])
			}
		}

		// The word loop a big-endian host runs instead of the block copy
		// gives the same memory as the block copy did, here where both run.
		viaLoop := make([]float32, n)
		words4(bytesOf(viaLoop), want[:4*n])
		if !bytes.Equal(bytesOf(viaLoop), bytesOf(gotF)) {
			t.Fatalf("n=%d: words4 and the bulk copy disagree", n)
		}
	}
}

// TestReadAll: every kind of source yields the same bytes — sized by Len, by
// Stat, or grown as delivered — including sources that lie about their size.
func TestReadAll(t *testing.T) {
	want := bytes.Repeat([]byte("0123456789abcdef"), 1000)
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	seeked, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seeked.Close()
	if _, err := seeked.Seek(100, io.SeekStart); err != nil {
		t.Fatal(err)
	}

	for name, tc := range map[string]struct {
		r    io.Reader
		want []byte
	}{
		"bytes.Reader":        {bytes.NewReader(want), want},
		"bytes.Buffer":        {bytes.NewBuffer(append([]byte(nil), want...)), want},
		"file":                {file, want},
		"file past its start": {seeked, want[100:]},
		"one byte at a time":  {iotest.OneByteReader(bytes.NewReader(want)), want},
		"Len too small":       {lenReader{bytes.NewReader(want), 10}, want},
		"Len too large":       {lenReader{bytes.NewReader(want), 1 << 20}, want},
		"empty":               {bytes.NewReader(nil), nil},
	} {
		got, err := ReadAll(tc.r)
		if err != nil || !bytes.Equal(got, tc.want) {
			t.Fatalf("%s: %d bytes, err %v; want %d bytes", name, len(got), err, len(tc.want))
		}
	}
	if _, err := ReadAll(iotest.ErrReader(io.ErrClosedPipe)); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("a failing source: %v", err)
	}
	if _, err := ReadAll(lenReader{iotest.ErrReader(io.ErrClosedPipe), 8}); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("a failing sized source: %v", err)
	}
}

// lenReader claims n bytes whatever it holds.
type lenReader struct {
	io.Reader
	n int
}

func (l lenReader) Len() int { return l.n }
