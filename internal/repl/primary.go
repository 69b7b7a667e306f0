package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"

	"repro/internal/multiem"
	"repro/internal/wal"
)

// maxSegmentChunk bounds one segment read; a follower asking for more gets
// this much and comes back for the rest.
const maxSegmentChunk = 4 << 20

// Primary serves a durable matcher's replication feed: the manifest, whole
// snapshot files, and segment bytes at offsets. All handlers are read-only
// with respect to the matcher — they serve alongside live ingest.
type Primary struct {
	m   *multiem.Matcher
	dir string
	// term is this primary's fencing term, fixed at construction (a process
	// is one term; promotion elsewhere mints a higher one).
	term uint64

	// CRCs of immutable files are computed once and cached; sealed segments
	// and snapshots never change, and recomputing them on every manifest
	// request would read the whole directory per poll.
	mu      sync.Mutex
	segCRC  map[int64]uint32
	snapCRC map[uint64]uint32
}

// NewPrimary wraps a matcher recovered from (and logging to) dir. The
// persisted fencing term is adopted, or initialized to 1 on a first-ever
// primary. At least one snapshot is guaranteed to exist afterwards, so a
// follower can always bootstrap.
func NewPrimary(m *multiem.Matcher, dir string) (*Primary, error) {
	if m.Log() == nil {
		return nil, errors.New("repl: primary requires a matcher with an attached WAL")
	}
	term, err := LoadTerm(dir)
	if err != nil {
		return nil, err
	}
	if term == 0 {
		term = 1
		if err := StoreTerm(dir, term); err != nil {
			return nil, err
		}
	}
	if _, _, ok, err := multiem.LatestSnapshot(dir); err != nil {
		return nil, err
	} else if !ok {
		if _, err := m.Snapshot(); err != nil {
			return nil, fmt.Errorf("repl: bootstrap snapshot: %w", err)
		}
	}
	return &Primary{m: m, dir: dir, term: term, segCRC: make(map[int64]uint32), snapCRC: make(map[uint64]uint32)}, nil
}

// Term reports the primary's fencing term.
func (p *Primary) Term() uint64 { return p.term }

// Manifest assembles the current replication catalog.
func (p *Primary) Manifest() (*Manifest, error) {
	man := &Manifest{Format: ManifestFormat, Term: p.term, NextSeq: p.m.WALStats().NextSeq}
	seqs, err := multiem.ListSnapshots(p.dir)
	if err != nil {
		return nil, err
	}
	for _, seq := range seqs {
		crc, size, err := p.snapshotCRC(seq)
		if err != nil {
			// Raced with retention dropping the oldest snapshot: skip it.
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		man.Snapshots = append(man.Snapshots, SnapshotEntry{Seq: seq, Bytes: size, CRC: crc})
	}
	segs, err := p.m.Log().Segments()
	if err != nil {
		return nil, err
	}
	for _, seg := range segs {
		e := SegmentEntry{Index: seg.Index, Bytes: seg.Bytes, Sealed: seg.Sealed}
		if seg.Sealed {
			if e.CRC, err = p.sealedCRC(seg.Index); err != nil {
				// Raced with a checkpoint dropping the segment: skip it;
				// the next manifest will not list it either.
				if os.IsNotExist(err) {
					continue
				}
				return nil, err
			}
		}
		man.Segments = append(man.Segments, e)
	}
	return man, nil
}

func (p *Primary) snapshotCRC(seq uint64) (uint32, int64, error) {
	p.mu.Lock()
	crc, ok := p.snapCRC[seq]
	p.mu.Unlock()
	path := multiem.SnapshotFile(p.dir, seq)
	if ok {
		info, err := os.Stat(path)
		if err != nil {
			return 0, 0, err
		}
		return crc, info.Size(), nil
	}
	crc, size, err := crcFile(path)
	if err != nil {
		return 0, 0, err
	}
	p.mu.Lock()
	p.snapCRC[seq] = crc
	p.mu.Unlock()
	return crc, size, nil
}

func (p *Primary) sealedCRC(index int64) (uint32, error) {
	p.mu.Lock()
	crc, ok := p.segCRC[index]
	p.mu.Unlock()
	if ok {
		return crc, nil
	}
	crc, _, err := crcFile(wal.SegmentFile(multiem.LogDir(p.dir), index))
	if err != nil {
		return 0, err
	}
	p.mu.Lock()
	p.segCRC[index] = crc
	p.mu.Unlock()
	return crc, nil
}

// HandleManifest serves GET /repl/manifest.
func (p *Primary) HandleManifest(w http.ResponseWriter, r *http.Request) {
	man, err := p.Manifest()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(man)
}

// HandleSnapshot serves GET /repl/snapshot/{seq}: the whole checkpoint file.
// The open file descriptor keeps the bytes alive even if retention unlinks
// the snapshot mid-download.
func (p *Primary) HandleSnapshot(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.ParseUint(r.PathValue("seq"), 10, 64)
	if err != nil {
		http.Error(w, "bad snapshot seq", http.StatusBadRequest)
		return
	}
	f, err := os.Open(multiem.SnapshotFile(p.dir, seq))
	if err != nil {
		if os.IsNotExist(err) {
			http.Error(w, "no such snapshot", http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(info.Size(), 10))
	w.Header().Set("X-Repl-Term", strconv.FormatUint(p.term, 10))
	io.Copy(w, f)
}

// HandleSegment serves GET /repl/segment/{index}?off=N&max=M: raw
// segment bytes from offset off, never past the whole-record fence — this is
// both the sealed-segment fetch and the live-tail chase (an empty 200 with
// X-Repl-Fence == off means "caught up, poll again").
func (p *Primary) HandleSegment(w http.ResponseWriter, r *http.Request) {
	index, err := strconv.ParseInt(r.PathValue("index"), 10, 64)
	if err != nil {
		http.Error(w, "bad segment index", http.StatusBadRequest)
		return
	}
	off := int64(0)
	if v := r.URL.Query().Get("off"); v != "" {
		if off, err = strconv.ParseInt(v, 10, 64); err != nil || off < 0 {
			http.Error(w, "bad offset", http.StatusBadRequest)
			return
		}
	}
	max := maxSegmentChunk
	if v := r.URL.Query().Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, "bad max", http.StatusBadRequest)
			return
		}
		if n < max {
			max = n
		}
	}
	buf, info, err := p.m.Log().ReadSegmentAt(index, off, max)
	switch {
	case errors.Is(err, wal.ErrNoSegment):
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	case errors.Is(err, wal.ErrPastFence):
		// The follower thinks this segment is longer than it is: the two
		// have diverged (e.g. this primary lost unsynced bytes to a crash).
		// 409 tells it to resync from a snapshot rather than retry.
		http.Error(w, err.Error(), http.StatusConflict)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Repl-Term", strconv.FormatUint(p.term, 10))
	w.Header().Set("X-Repl-Fence", strconv.FormatInt(info.Bytes, 10))
	w.Header().Set("X-Repl-Sealed", strconv.FormatBool(info.Sealed))
	w.Write(buf)
}
