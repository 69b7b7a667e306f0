package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// collect replays a log into a slice of payload copies.
func collect(t *testing.T, l *Log) ([][]byte, error) {
	t.Helper()
	var got [][]byte
	err := l.Replay(func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	return got, err
}

func testRecords(n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		// Varied sizes, including empty, so frame offsets are irregular.
		recs[i] = bytes.Repeat([]byte{byte('a' + i)}, i*7%23)
	}
	return recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(9)
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := collect(t, l)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d: got %q, want %q", i, got[i], recs[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A reopened log replays the same records and keeps appending after them.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append([]byte("after reopen")); err != nil {
		t.Fatal(err)
	}
	got, err = collect(t, l2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs)+1 || string(got[len(got)-1]) != "after reopen" {
		t.Fatalf("reopened log replayed %d records, want %d ending in the new one", len(got), len(recs)+1)
	}
	l2.Close()
}

func TestRotationAndDrop(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record larger than a few bytes forces a rotation.
	l, err := Open(dir, Options{SegmentMaxBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	for i := 0; i < 10; i++ {
		r := bytes.Repeat([]byte{byte('A' + i)}, 40)
		recs = append(recs, r)
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", st.Segments)
	}
	if st.Appends != 10 {
		t.Fatalf("appends = %d, want 10", st.Appends)
	}
	got, err := collect(t, l)
	if err != nil {
		t.Fatalf("replay across segments: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}

	// Seal the active segment, then drop everything before it: the log is
	// empty but appendable, like after a snapshot.
	cut := l.ActiveSegment()
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.DropSegmentsThrough(cut); err != nil {
		t.Fatal(err)
	}
	got, err = collect(t, l)
	if err != nil || len(got) != 0 {
		t.Fatalf("after drop: %d records, err %v; want 0, nil", len(got), err)
	}
	if err := l.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	got, err = collect(t, l)
	if err != nil || len(got) != 1 {
		t.Fatalf("after drop+append: %d records, err %v", len(got), err)
	}
	l.Close()
}

func TestSyncCountsAndPolicyParse(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil { // pre-append sync is a no-op
		t.Fatal(err)
	}
	if err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Syncs != 1 {
		t.Fatalf("syncs = %d, want 1", st.Syncs)
	}
	l.Close()

	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "off": SyncOff} {
		p, err := ParsePolicy(s)
		if err != nil || p != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, p, err)
		}
		if p.String() != s {
			t.Fatalf("SyncPolicy(%q).String() = %q", s, p.String())
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("ParsePolicy accepted an unknown policy")
	}
}

// TestTornWriteEveryOffset truncates a small single-segment log at every
// byte offset and asserts replay stops cleanly at the last whole record:
// no panic, the records wholly contained in the prefix are delivered, and a
// cut mid-structure surfaces the typed ErrTornWrite.
func TestTornWriteEveryOffset(t *testing.T) {
	srcDir := t.TempDir()
	l, err := Open(srcDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(6)
	// boundaries[i] is the file size after the segment header and i records.
	boundaries := []int64{int64(len(segMagic))}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, boundaries[len(boundaries)-1]+frameHeaderLen+int64(len(r)))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(segPath(srcDir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != boundaries[len(boundaries)-1] {
		t.Fatalf("file is %d bytes, frame math says %d", len(full), boundaries[len(boundaries)-1])
	}

	wholeBefore := func(cut int64) int {
		n := 0
		for i := 1; i < len(boundaries); i++ {
			if boundaries[i] <= cut {
				n = i
			}
		}
		return n
	}
	atBoundary := func(cut int64) bool {
		if cut == 0 {
			return true // empty file: crash between create and header write
		}
		for _, b := range boundaries {
			if cut == b {
				return true
			}
		}
		return false
	}

	for cut := int64(0); cut <= int64(len(full)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tl, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		got, err := collect(t, tl)
		want := wholeBefore(cut)
		if len(got) != want {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(got), want)
		}
		for i := 0; i < want; i++ {
			if !bytes.Equal(got[i], recs[i]) {
				t.Fatalf("cut %d: record %d corrupted", cut, i)
			}
		}
		if atBoundary(cut) {
			if err != nil {
				t.Fatalf("cut %d is a record boundary, replay errored: %v", cut, err)
			}
		} else if !errors.Is(err, ErrTornWrite) {
			t.Fatalf("cut %d: error %v, want ErrTornWrite", cut, err)
		}

		// The log must heal: the next append truncates the torn bytes and
		// replay sees the whole records plus the new one, with no error.
		if err := tl.Append([]byte("healed")); err != nil {
			t.Fatalf("cut %d: append after tear: %v", cut, err)
		}
		got, err = collect(t, tl)
		if err != nil {
			t.Fatalf("cut %d: replay after heal: %v", cut, err)
		}
		if len(got) != want+1 || string(got[len(got)-1]) != "healed" {
			t.Fatalf("cut %d: after heal got %d records", cut, len(got))
		}
		tl.Close()
	}
}

// A corrupt record in a non-final segment is damage, not a torn tail: replay
// must fail with a plain error, not ErrTornWrite.
func TestCorruptionMidLogIsNotTorn(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentMaxBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := l.Append(bytes.Repeat([]byte{byte('a' + i)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := l.Stats().Segments; n < 2 {
		t.Fatalf("need >= 2 segments, got %d", n)
	}

	// Flip a payload byte in the first (sealed) segment.
	path := segPath(dir, 1)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = collect(t, l2)
	if err == nil {
		t.Fatal("replay accepted a corrupt sealed segment")
	}
	if errors.Is(err, ErrTornWrite) {
		t.Fatalf("mid-log corruption reported as torn write: %v", err)
	}
	l2.Close()
}

func TestReplayCallbackErrorStopsEarly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sentinel := fmt.Errorf("stop here")
	seen := 0
	err = l.Replay(func(p []byte) error {
		seen++
		if seen == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || seen != 3 {
		t.Fatalf("replay: err %v after %d records, want sentinel after 3", err, seen)
	}
	l.Close()
}

func TestOpenRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-bogus.wal"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted an unparseable segment name")
	}
}

// TestCheckVersion: only a complete header of another format version is
// ErrVersion. A missing directory, this version's own segments, a header a
// crash cut short and a file that is no segment at all pass — the last is
// Replay's to report as a bad magic.
func TestCheckVersion(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	if err := CheckVersion(dir); err != nil {
		t.Fatalf("missing dir: %v", err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("record")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := CheckVersion(dir); err != nil {
		t.Fatalf("own segments: %v", err)
	}
	for _, header := range []string{"MEMW", "notawal!"} {
		if err := os.WriteFile(segPath(dir, 2), []byte(header), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := CheckVersion(dir); err != nil {
			t.Fatalf("second segment opening with %q: %v", header, err)
		}
	}
	if err := os.WriteFile(segPath(dir, 2), []byte("MEMWAL1\nold records"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CheckVersion(dir); !errors.Is(err, ErrVersion) {
		t.Fatalf("a version-1 segment: %v, want ErrVersion", err)
	}
}
