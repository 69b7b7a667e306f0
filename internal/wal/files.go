package wal

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces path whole or not at all, durably: write fills a
// fresh path+".tmp", which is fsynced, closed and renamed over path, and the
// directory is then fsynced so the rename survives power loss (best-effort:
// some platforms refuse directory fsyncs). On any failure the tmp is removed
// and path keeps what it held. Every state file outside the log — snapshots,
// saved matchers, the replication term, mirrored snapshots — is written here.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
