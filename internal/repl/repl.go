// Package repl implements WAL-shipping replication for the matcher: a
// primary serves its durability directory — snapshots plus the batch log's
// segments — over HTTP, and followers mirror it byte-for-byte, applying each
// batch record's rows under the decisions the primary logged with them
// (checked against the follower's state, never searched for again) so their
// state is bit-identical to the primary's at every applied sequence. A
// follower serves read-only traffic the whole time and can be promoted to
// primary, fenced against the old primary by a monotonic term.
//
// The wire protocol is deliberately dumb: the manifest names what exists,
// snapshots and segments are fetched as raw bytes at offsets, and all
// replay semantics live in multiem.Replicator. Segment reads never cross
// the primary's whole-record fence, so a follower can chase the live
// segment without ever mistaking a torn tail for damage.
package repl

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/wal"
)

// ManifestFormat numbers the manifest's wire format and what it implies
// about the files behind it: 3 is one batch log (one record per batch,
// fetched from /repl/segment/{index}) whose records carry the batch's
// decisions beside its rows. Format 2 had the same manifest over records of
// raw rows; format 1 — per-shard logs under "shard_segments" — predates the
// field and decodes as 0.
const ManifestFormat = 3

// Manifest is the primary's replication catalog: everything a follower can
// fetch, plus the positions that define lag.
type Manifest struct {
	// Format is ManifestFormat; a follower refuses any other value.
	Format int `json:"format"`
	// Term is the primary's fencing term. A follower refuses manifests with
	// a term below the highest it has ever acknowledged, so a revived old
	// primary cannot feed it stale segments.
	Term uint64 `json:"term"`
	// NextSeq is the sequence number the primary's next ingest batch will
	// get; follower lag in batches is NextSeq minus the follower's own.
	NextSeq uint64 `json:"next_seq"`
	// Snapshots lists the retained checkpoints, oldest first.
	Snapshots []SnapshotEntry `json:"snapshots"`
	// Segments lists the batch log's live segments, oldest first.
	Segments []SegmentEntry `json:"segments"`
}

// SnapshotEntry describes one fetchable checkpoint.
type SnapshotEntry struct {
	// Seq is the sequence the checkpoint covers: a follower bootstrapped
	// from it needs batches at Seq and after.
	Seq uint64 `json:"seq"`
	// Bytes is the file size.
	Bytes int64 `json:"bytes"`
	// CRC is the CRC-32C of the whole file; snapshots are immutable.
	CRC uint32 `json:"crc"`
}

// SegmentEntry describes one fetchable log segment.
type SegmentEntry struct {
	// Index is the segment number within the log.
	Index int64 `json:"index"`
	// Bytes is the fenced size: every byte below it is whole records. For
	// a sealed segment this is the final file size.
	Bytes int64 `json:"bytes"`
	// Sealed is true once the segment can never grow again.
	Sealed bool `json:"sealed"`
	// CRC is the CRC-32C of the full file, set only for sealed segments
	// (the live one is still changing).
	CRC uint32 `json:"crc,omitempty"`
}

// newestSnapshot returns the highest-seq snapshot entry, ok=false when the
// manifest lists none.
func (m *Manifest) newestSnapshot() (SnapshotEntry, bool) {
	if len(m.Snapshots) == 0 {
		return SnapshotEntry{}, false
	}
	best := m.Snapshots[0]
	for _, s := range m.Snapshots[1:] {
		if s.Seq > best.Seq {
			best = s
		}
	}
	return best, true
}

// termFile persists the fencing term inside a durability (or mirror)
// directory. It survives restarts of both roles: a primary serves it in the
// manifest, a follower uses it to reject stale primaries and bumps it when
// promoted.
const termFile = "repl-term"

// LoadTerm reads the persisted fencing term; 0 when none was ever stored.
func LoadTerm(dir string) (uint64, error) {
	raw, err := os.ReadFile(filepath.Join(dir, termFile))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("repl: read term: %w", err)
	}
	term, err := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("repl: corrupt term file: %w", err)
	}
	return term, nil
}

// StoreTerm durably persists the fencing term (wal.WriteFileAtomic): a crash
// right after a promotion must not forget the new term, or a revived old
// primary could be accepted again.
func StoreTerm(dir string, term uint64) error {
	err := wal.WriteFileAtomic(filepath.Join(dir, termFile), func(w io.Writer) error {
		_, err := io.WriteString(w, strconv.FormatUint(term, 10)+"\n")
		return err
	})
	if err != nil {
		return fmt.Errorf("repl: store term: %w", err)
	}
	return nil
}

// crcFile computes the CRC-32C (Castagnoli, the WAL's polynomial) of a whole
// file; used for manifest integrity entries on immutable files.
func crcFile(path string) (uint32, int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	return wal.CRC(raw), int64(len(raw)), nil
}
