// Package binio provides the little-endian binary framing shared by the
// repository's serializers (the HNSW index and the online matcher): fixed
// width integer/float writes into a bufio.Writer, whole arenas written and
// read as one block, and a sticky-error cursor over the file's bytes that
// keeps loading code linear instead of error-checking every field.
//
// One rule covers hostile input: the bytes come first. ReadAll reads what the
// source holds, once; a Reader only hands out what is left of that, and Count
// refuses a length the bytes left could not back — so nothing a file claims
// sizes an allocation the file itself does not pay for.
package binio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"math"
	"unsafe"
)

// room returns w's own free buffer space, flushed first if fewer than n (<= 8)
// bytes are free: a value appended to it is encoded in place, where a local
// array handed to Write escapes to the heap — one allocation a field.
func room(w *bufio.Writer, n int) []byte {
	if w.Available() < n {
		w.Flush()
	}
	return w.AvailableBuffer()
}

// WriteU32 writes v little-endian. Write errors surface at Flush, per bufio.
func WriteU32(w *bufio.Writer, v uint32) {
	w.Write(binary.LittleEndian.AppendUint32(room(w, 4), v))
}

// WriteI32 writes v little-endian.
func WriteI32(w *bufio.Writer, v int32) { WriteU32(w, uint32(v)) }

// WriteI64 writes v little-endian.
func WriteI64(w *bufio.Writer, v int64) {
	w.Write(binary.LittleEndian.AppendUint64(room(w, 8), uint64(v)))
}

// WriteString writes a length-prefixed string.
func WriteString(w *bufio.Writer, s string) {
	WriteU32(w, uint32(len(s)))
	w.WriteString(s)
}

// WriteF32 writes the IEEE-754 bits of v.
func WriteF32(w *bufio.Writer, v float32) { WriteU32(w, math.Float32bits(v)) }

// WriteF32s writes v as one little-endian block: on a little-endian host a
// single Write of the slice's own memory, which bufio hands straight to the
// underlying writer when v outsizes its buffer — an arena is never copied.
func WriteF32s(w *bufio.Writer, v []float32) { write4(w, v) }

// WriteI32s is WriteF32s for int32s.
func WriteI32s(w *bufio.Writer, v []int32) { write4(w, v) }

// WriteInts writes each element of v as a little-endian int64.
func WriteInts(w *bufio.Writer, v []int) {
	for _, x := range v {
		WriteI64(w, int64(x))
	}
}

// hostBigEndian: memory order is not the file's, so bulk reads and writes go
// word by word instead of moving an arena as one block. No amd64 or arm64 run
// takes that side; CI compiles and vets it for s390x (make build-bigendian).
var hostBigEndian = binary.NativeEndian.Uint16([]byte{0, 1}) == 1

// write4 writes v's 4-byte elements little-endian: v's own memory where the
// host's order is the file's, element by element elsewhere.
func write4[T float32 | int32](w *bufio.Writer, v []T) {
	b := bytesOf(v)
	if !hostBigEndian {
		w.Write(b)
		return
	}
	for ; len(b) >= 4; b = b[4:] {
		WriteU32(w, binary.NativeEndian.Uint32(b))
	}
}

// fill4 copies src's little-endian 4-byte words into dst in host order: one
// block copy where the two orders agree, words4 elsewhere.
func fill4(dst, src []byte) {
	if hostBigEndian {
		words4(dst, src)
	} else {
		copy(dst, src)
	}
}

// words4 is fill4 a word at a time, right on either kind of host.
func words4(dst, src []byte) {
	for i := 0; i+4 <= len(src); i += 4 {
		binary.NativeEndian.PutUint32(dst[i:], binary.LittleEndian.Uint32(src[i:]))
	}
}

// read4 decodes the next n 4-byte elements into a fresh slice of exactly that
// many. The bytes are taken first, so a length the input cannot back fails
// before anything is allocated; a little-endian host then grows the slice
// straight from them — one copy, into memory nobody zeroed first. The input
// need not be aligned for T: its view is only ever the source of that copy.
func read4[T float32 | int32](r *Reader, n int) []T {
	b := r.Next(4 * n)
	if len(b) == 0 {
		return nil
	}
	if !hostBigEndian {
		return append([]T(nil), unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)...)
	}
	out := make([]T, n)
	fill4(bytesOf(out), b)
	return out
}

// bytesOf views v's memory as bytes, in host order.
func bytesOf[T float32 | int32](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
}

// ReadAll returns everything r still holds. Len() of an in-memory reader or
// the size of a regular file vouch for bytes that exist: one allocation, one
// read. Anything else goes to io.ReadAll, whose buffer only grows with bytes
// delivered — as does a source that turns out longer than it claimed.
func ReadAll(r io.Reader) ([]byte, error) {
	n := -1
	switch s := r.(type) {
	case interface{ Len() int }:
		n = s.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil && fi.Mode().IsRegular() && fi.Size() == int64(int(fi.Size())) {
			n = int(fi.Size())
		}
	}
	if n < 0 {
		return io.ReadAll(r)
	}
	buf := make([]byte, n)
	got, err := io.ReadFull(r, buf)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return buf[:got], nil
	}
	if err != nil {
		return nil, err
	}
	rest, err := io.ReadAll(r)
	return append(buf, rest...), err
}

// Reader is a cursor over a file's bytes that decodes fixed-width
// little-endian values, remembering the first error; once an error is set
// every subsequent read returns zero values.
type Reader struct {
	b   []byte // what is left
	err error
}

// NewReader returns a cursor at the start of b. The Reader aliases b: Next
// hands out sub-slices, nothing is copied until a value is decoded.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first error encountered, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of bytes left.
func (r *Reader) Len() int { return len(r.b) }

// Next returns the next n bytes as a sub-slice of the input and steps over
// them. With fewer than n left (or n negative) it sets the error to
// io.ErrUnexpectedEOF and returns nil.
func (r *Reader) Next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// I32 reads a little-endian int32, widened to int.
func (r *Reader) I32() int { return int(int32(r.U32())) }

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 {
	if b := r.Next(8); b != nil {
		return int64(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// F32 reads an IEEE-754 float32.
func (r *Reader) F32() float32 { return math.Float32frombits(r.U32()) }

// Count reads an int32 element count whose elements each occupy at least
// elemBytes (> 0) of what follows, and sets the error when the count is
// negative or the bytes left could not hold that many. A caller may size an
// allocation by the count it returns: the input pays for it.
func (r *Reader) Count(elemBytes int) int {
	n := r.I32()
	if r.err == nil && (n < 0 || n > len(r.b)/elemBytes) {
		r.err = fmt.Errorf("count %d exceeds the %d bytes left (at least %d each)", n, len(r.b), elemBytes)
		return 0
	}
	return n
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.Next(r.Count(1))) }

// F32s decodes the next n float32s into a fresh slice — an arena as one
// allocation and one bulk copy, the read side of WriteF32s. It returns nil,
// with the error set, when fewer than 4*n bytes are left.
func (r *Reader) F32s(n int) []float32 { return read4[float32](r, n) }

// I32s is F32s for int32s.
func (r *Reader) I32s(n int) []int32 { return read4[int32](r, n) }

// I32sInto fills dst from the next 4*len(dst) bytes; on error dst is
// untouched.
func (r *Reader) I32sInto(dst []int32) {
	if b := r.Next(4 * len(dst)); b != nil {
		fill4(bytesOf(dst), b)
	}
}

// Ints decodes the next n little-endian int64s into a fresh []int, or nil
// with the error set when fewer than 8*n bytes are left.
func (r *Reader) Ints(n int) []int {
	b := r.Next(8 * n)
	if len(b) == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return out
}
