package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// frame builds the on-disk encoding of one record.
func frame(payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	return append(hdr[:], payload...)
}

// scanAll runs ScanRecords from off and returns the collected payloads.
func scanAll(t *testing.T, path string, off int64) ([][]byte, int64, TailState, error) {
	t.Helper()
	var got [][]byte
	next, tail, err := ScanRecords(path, off, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	return got, next, tail, err
}

// TestScanRecordsChasesGrowingTail simulates a follower chasing a segment
// that is still being appended: bytes arrive in arbitrary chunks, including
// splits in the middle of a frame header and mid-payload, and the scanner
// must report TailPartial (wait for more) without ever surfacing an error.
func TestScanRecordsChasesGrowingTail(t *testing.T) {
	recs := testRecords(7)
	full := append([]byte(nil), segMagic[:]...)
	var boundaries []int64 // offset just past each whole record
	for _, r := range recs {
		full = append(full, frame(r)...)
		boundaries = append(boundaries, int64(len(full)))
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "seg-0000000000000000.wal")

	var got [][]byte
	off := int64(0)
	// Grow the file one byte at a time — the harshest chunking possible.
	for n := 1; n <= len(full); n++ {
		if err := os.WriteFile(path, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		next, tail, err := ScanRecords(path, off, func(p []byte) error {
			got = append(got, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			t.Fatalf("at %d bytes: %v", n, err)
		}
		if tail == TailInvalid {
			t.Fatalf("at %d bytes: tail reported invalid on a merely-growing file", n)
		}
		onBoundary := int64(n) == int64(len(segMagic))
		for _, b := range boundaries {
			if int64(n) == b {
				onBoundary = true
			}
		}
		if onBoundary && tail != TailClean {
			t.Fatalf("at %d bytes (record boundary): tail = %v, want TailClean", n, tail)
		}
		if !onBoundary && int64(n) > int64(len(segMagic)) && tail != TailPartial {
			t.Fatalf("at %d bytes (mid-record): tail = %v, want TailPartial", n, tail)
		}
		if next < off {
			t.Fatalf("at %d bytes: next %d went backwards from %d", n, next, off)
		}
		off = next
	}
	if len(got) != len(recs) {
		t.Fatalf("chased %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d: got %q, want %q", i, got[i], recs[i])
		}
	}
}

// TestScanRecordsCorruptionVsTornTail asserts the classification that the
// replication read path hinges on: an incomplete trailing frame is
// TailPartial (more bytes may come), while a complete frame with a bad
// checksum or an insane length is TailInvalid — damage no append can fix.
func TestScanRecordsCorruptionVsTornTail(t *testing.T) {
	recs := testRecords(4)
	base := append([]byte(nil), segMagic[:]...)
	for _, r := range recs {
		base = append(base, frame(r)...)
	}
	validEnd := int64(len(base))
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-0000000000000000.wal")

	// Torn tail: a frame that starts but does not finish.
	torn := append(append([]byte(nil), base...), frame([]byte("unfinished"))[:frameHeaderLen+3]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	got, next, tail, err := scanAll(t, path, 0)
	if err != nil || tail != TailPartial || next != validEnd || len(got) != len(recs) {
		t.Fatalf("torn tail: got %d recs, next %d, tail %v, err %v; want %d recs, next %d, TailPartial, nil",
			len(got), next, tail, err, len(recs), validEnd)
	}

	// Bit flip inside the last payload: complete frame, wrong checksum.
	flipped := append([]byte(nil), base...)
	flipped[len(flipped)-1] ^= 0x40
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	lastStart := validEnd - frameHeaderLen - int64(len(recs[len(recs)-1]))
	got, next, tail, err = scanAll(t, path, 0)
	if err == nil || tail != TailInvalid || next != lastStart || len(got) != len(recs)-1 {
		t.Fatalf("bad crc: got %d recs, next %d, tail %v, err %v; want %d recs, next %d, TailInvalid, error",
			len(got), next, tail, err, len(recs)-1, lastStart)
	}

	// Insane declared length: also invalid, not a tail to wait on.
	huge := append([]byte(nil), base...)
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(maxRecordBytes)+1)
	huge = append(huge, hdr[:]...)
	if err := os.WriteFile(path, huge, 0o644); err != nil {
		t.Fatal(err)
	}
	_, next, tail, err = scanAll(t, path, 0)
	if err == nil || tail != TailInvalid || next != validEnd {
		t.Fatalf("huge len: next %d, tail %v, err %v; want next %d, TailInvalid, error", next, tail, err, validEnd)
	}

	// Resuming from a mid-log offset skips the records before it.
	if err := os.WriteFile(path, base, 0o644); err != nil {
		t.Fatal(err)
	}
	firstEnd := int64(len(segMagic)) + frameHeaderLen + int64(len(recs[0]))
	got, next, tail, err = scanAll(t, path, firstEnd)
	if err != nil || tail != TailClean || next != validEnd || len(got) != len(recs)-1 {
		t.Fatalf("resume: got %d recs, next %d, tail %v, err %v", len(got), next, tail, err)
	}
	if !bytes.Equal(got[0], recs[1]) {
		t.Fatalf("resume: first record %q, want %q", got[0], recs[1])
	}
}

// TestScanRecordsBoundsAllocation: a frame header may declare any length up
// to the record limit, and a follower scans bytes it fetched from elsewhere —
// the length must be checked against what the file holds before it sizes a
// buffer, so eight damaged bytes cannot cost a gibibyte.
func TestScanRecordsBoundsAllocation(t *testing.T) {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], maxRecordBytes)
	path := filepath.Join(t.TempDir(), "seg-0000000000000001.wal")
	if err := os.WriteFile(path, append(segMagic[:], hdr[:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	next, tail, err := ScanRecords(path, 0, nil)
	runtime.ReadMemStats(&after)
	if err != nil || tail != TailPartial || next != int64(len(segMagic)) {
		t.Fatalf("next %d, tail %v, err %v; want %d, TailPartial, nil", next, tail, err, len(segMagic))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("scanning a 16-byte file allocated %d bytes", got)
	}
}

// TestSegmentsFenceOnTornTail opens a crashed log read-only (no append yet)
// and asserts Segments() fences the final segment at the last whole record
// while the file on disk still carries the torn bytes.
func TestSegmentsFenceOnTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentMaxBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(6)
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final segment mid-frame.
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(names) < 2 {
		t.Fatalf("want >= 2 segments, got %v (err %v)", names, err)
	}
	last := names[len(names)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	fence, err := validSegmentSize(last)
	if err != nil {
		t.Fatal(err)
	}
	if fence != info.Size() {
		t.Fatalf("pre-tear fence %d != size %d", fence, info.Size())
	}
	if err := os.Truncate(last, info.Size()-2); err != nil {
		t.Fatal(err)
	}
	wholeFence, err := validSegmentSize(last)
	if err != nil {
		t.Fatal(err)
	}
	if wholeFence >= info.Size()-2 {
		t.Fatalf("tear did not cross a record boundary: fence %d, size %d", wholeFence, info.Size()-2)
	}

	l, err = Open(dir, Options{SegmentMaxBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	segs, err := l.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != len(names) {
		t.Fatalf("Segments() returned %d, want %d", len(segs), len(names))
	}
	for i, s := range segs {
		if (i < len(segs)-1) != s.Sealed {
			t.Fatalf("segment %d: sealed = %v", i, s.Sealed)
		}
	}
	final := segs[len(segs)-1]
	if final.Bytes != wholeFence {
		t.Fatalf("final segment fence %d, want %d", final.Bytes, wholeFence)
	}
	// The torn bytes stay on disk until the first append truncates them.
	if info, err := os.Stat(last); err != nil || info.Size() == wholeFence {
		t.Fatalf("torn bytes disappeared before first append (size %d, err %v)", wholeFence, err)
	}

	// Reading at the fence reports caught-up, never the torn bytes.
	buf, ri, err := l.ReadSegmentAt(final.Index, final.Bytes, 1024)
	if err != nil || len(buf) != 0 || ri.Bytes != wholeFence {
		t.Fatalf("read at fence: %d bytes, info %+v, err %v", len(buf), ri, err)
	}
	if _, _, err := l.ReadSegmentAt(final.Index, final.Bytes+1, 1024); !errors.Is(err, ErrPastFence) {
		t.Fatalf("read past fence: err %v, want ErrPastFence", err)
	}

	// First append truncates the tear and moves the fence past the record.
	if err := l.Append([]byte("after-tear")); err != nil {
		t.Fatal(err)
	}
	segs, err = l.Segments()
	if err != nil {
		t.Fatal(err)
	}
	final = segs[len(segs)-1]
	if want := wholeFence + frameHeaderLen + int64(len("after-tear")); final.Bytes != want {
		t.Fatalf("post-append fence %d, want %d", final.Bytes, want)
	}
}

// TestReadSegmentAtChunks reconstructs a whole log byte-for-byte through
// ReadSegmentAt with a tiny chunk size and replays the copy, proving the
// chunked read path is lossless — the core follower mirroring operation.
func TestReadSegmentAtChunks(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentMaxBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(9)
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	defer l.Close()

	segs, err := l.Segments()
	if err != nil {
		t.Fatal(err)
	}
	mirror := t.TempDir()
	for _, s := range segs {
		var data []byte
		for off := int64(0); off < s.Bytes; {
			buf, info, err := l.ReadSegmentAt(s.Index, off, 5)
			if err != nil {
				t.Fatalf("segment %d at %d: %v", s.Index, off, err)
			}
			if info.Bytes != s.Bytes {
				t.Fatalf("segment %d: fence moved %d -> %d with no appends", s.Index, s.Bytes, info.Bytes)
			}
			if len(buf) == 0 {
				t.Fatalf("segment %d at %d: empty read below fence %d", s.Index, off, s.Bytes)
			}
			data = append(data, buf...)
			off += int64(len(buf))
		}
		orig, err := os.ReadFile(segPath(dir, s.Index))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, orig) {
			t.Fatalf("segment %d: chunked copy differs from original", s.Index)
		}
		if err := os.WriteFile(segPath(mirror, s.Index), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	ml, err := Open(mirror, Options{SegmentMaxBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer ml.Close()
	got, err := collect(t, ml)
	if err != nil {
		t.Fatalf("mirror replay: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("mirror replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("mirror record %d: got %q, want %q", i, got[i], recs[i])
		}
	}

	if _, _, err := l.ReadSegmentAt(segs[len(segs)-1].Index+100, 0, 64); !errors.Is(err, ErrNoSegment) {
		t.Fatalf("missing segment: err %v, want ErrNoSegment", err)
	}
}
