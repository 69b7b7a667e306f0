package wal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomic: a write that fails leaves neither the target nor its
// .tmp behind, and one that succeeds replaces an existing target whole.
func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want the callback's error", err)
	}
	for _, p := range []string{path, path + ".tmp"} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s left behind after a failed write (%v)", filepath.Base(p), err)
		}
	}

	if err := os.WriteFile(path, []byte("an older, longer body"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "new" {
		t.Fatalf("target holds %q (%v), want %q", got, err, "new")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf(".tmp left behind after a successful write (%v)", err)
	}

	// A failure leaves an existing target as it was.
	if err := WriteFileAtomic(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("failed write changed the target to %q", got)
	}
}
