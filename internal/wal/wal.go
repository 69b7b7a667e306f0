// Package wal implements the durability substrate of the online matcher: a
// segmented append-only log of opaque records. Each record is framed as
//
//	length  uint32 (little-endian, payload bytes)
//	crc32c  uint32 (Castagnoli, over the payload)
//	payload length bytes
//
// and segments are plain files "seg-<n>.wal" (n strictly increasing) that
// start with an 8-byte magic and rotate once they exceed a size threshold.
// Appends go through a buffered writer that is flushed to the OS on every
// record — so a crashed *process* loses nothing — while fsync (surviving a
// crashed *machine*) is the caller's policy: Sync on every append, on a
// timer, or never.
//
// A crash can leave a partial record at the tail of the last segment. Replay
// detects it by the frame (short header, short payload, or CRC mismatch),
// surfaces it as ErrTornWrite after delivering every whole record, and the
// next Append truncates the torn bytes so the log is append-clean again.
// Structural damage anywhere else is not a torn tail and fails replay with a
// plain corruption error.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/hist"
)

// SyncPolicy says when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs before an append returns: an acknowledged record
	// survives power loss. Slowest; the fsync dominates small batches.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a timer (the caller runs it): bounded data loss
	// on power failure, near-SyncOff throughput.
	SyncInterval
	// SyncOff never fsyncs: the OS writes pages back on its own schedule.
	// Survives process crashes, not power loss.
	SyncOff
)

// ParsePolicy maps the flag spellings to a policy.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or off)", s)
}

// String returns the flag spelling accepted by ParsePolicy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ErrTornWrite marks a partial record at the tail of the final segment — the
// expected remnant of a crash mid-append. Replay returns it (wrapped, with
// the offset) after delivering every whole record; callers treat it as the
// clean end of the log.
var ErrTornWrite = errors.New("wal: torn write at log tail")

// segMagic opens every segment file; the trailing digit is the format
// version. It covers the records' payload layout too: the matcher bumps it
// when its batch record changes, so no old record reaches a new decoder (2 =
// batch records that carry their decisions).
var segMagic = [8]byte{'M', 'E', 'M', 'W', 'A', 'L', '2', '\n'}

// ErrVersion reports a segment written under another format version: its
// magic differs from this build's in the version digit only.
var ErrVersion = errors.New("wal: segment written under another format version")

// CheckVersion returns ErrVersion (wrapped, naming the file) when dir holds a
// segment of another format version. A missing dir, a header still being
// written and a foreign file (Replay reports that as a bad magic) all pass;
// nothing is modified.
func CheckVersion(dir string) error {
	segs, err := scanSegments(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for _, seg := range segs {
		f, err := os.Open(seg.path)
		if err != nil {
			return fmt.Errorf("wal: check version: %w", err)
		}
		var mg [8]byte
		_, err = io.ReadFull(f, mg[:])
		f.Close()
		if err == nil && mg != segMagic && string(mg[:6]) == string(segMagic[:6]) {
			return fmt.Errorf("%w: %s opens with %q, want %q", ErrVersion, seg.path, mg[:7], segMagic[:7])
		}
	}
	return nil
}

const (
	frameHeaderLen = 8       // length + crc32c
	maxRecordBytes = 1 << 30 // structural sanity bound on one record
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Log. The zero value is usable.
type Options struct {
	// SegmentMaxBytes rotates the active segment once appending the next
	// record would push it past this size; the crossing record opens the
	// fresh segment (records never span segments). <= 0 means 64 MiB.
	SegmentMaxBytes int64
}

const defaultSegmentMaxBytes = 64 << 20

// Stats is a point-in-time size summary of a Log.
type Stats struct {
	// Segments is the number of live segment files.
	Segments int `json:"segments"`
	// Bytes is the total size of the live segment files.
	Bytes int64 `json:"bytes"`
	// Appends counts records appended since Open.
	Appends int64 `json:"appends"`
	// Syncs counts fsyncs since Open.
	Syncs int64 `json:"syncs"`
	// TornTruncations counts torn-tail truncations: crash-damaged partial
	// records dropped when the log reopened for writing.
	TornTruncations int64 `json:"torn_truncations"`
}

// segment is one log file and its bookkeeping.
type segment struct {
	index int64
	path  string
	bytes int64
	// fence is the byte offset known to end on a whole-record boundary, or
	// -1 when it has not been established yet. While the writer is attached
	// (every appended record is flushed whole before Append returns) the
	// fence equals bytes; for the final segment of a just-opened log the file
	// may end in a torn record, so the fence is computed by scanning once and
	// cached until the first append truncates the tear.
	fence int64
}

// Log is one append-only record log in its own directory. All methods are
// safe for concurrent use; appends are serialized internally.
type Log struct {
	dir string
	opt Options

	mu       sync.Mutex
	segments []segment // ascending by index; last is the active one
	f        *os.File  // active segment, nil until the first append
	w        *bufio.Writer
	appends  int64
	syncs    int64
	// tornTruncs counts torn-tail truncations performed on reopen.
	tornTruncs int64
	// syncDur distributes fsync wall time (flush + fdatasync); lock-free
	// reads via SyncDurations feed the fsync-latency metric.
	syncDur hist.Histogram
	closed  bool
}

// Open attaches to the log directory, creating it if needed. Existing
// segments are discovered but not validated; the first Append scans the last
// segment and silently truncates a torn tail (call Replay first to observe
// the records and the tear).
func Open(dir string, opt Options) (*Log, error) {
	if opt.SegmentMaxBytes <= 0 {
		opt.SegmentMaxBytes = defaultSegmentMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	segs, err := scanSegments(dir)
	if err != nil {
		return nil, err
	}
	return &Log{dir: dir, opt: opt, segments: segs}, nil
}

// scanSegments lists and sorts the segment files in dir.
func scanSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: scan: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		idx, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: scan: unparseable segment name %q", name)
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("wal: scan: %w", err)
		}
		segs = append(segs, segment{index: idx, path: filepath.Join(dir, name), bytes: info.Size(), fence: -1})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	return segs, nil
}

func segPath(dir string, index int64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%016d.wal", index))
}

// SegmentFile names segment index's file under a log directory; exported so
// replication mirrors lay their copies out exactly like the source log.
func SegmentFile(dir string, index int64) string { return segPath(dir, index) }

// CRC computes the checksum the log frames use (CRC-32C, Castagnoli) over b;
// exported so the replication layer integrity-checks whole mirrored files
// with the same polynomial.
func CRC(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// Append frames payload and writes it to the active segment, rotating first
// when the segment is full. The record is flushed to the OS before Append
// returns (process-crash safe); call Sync for power-loss durability.
func (l *Log) Append(payload []byte) error {
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("wal: append: record of %d bytes exceeds limit", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: append on closed log")
	}
	if err := l.ensureWritableLocked(); err != nil {
		return err
	}
	active := &l.segments[len(l.segments)-1]
	if active.bytes > int64(len(segMagic)) && active.bytes+frameHeaderLen+int64(len(payload)) > l.opt.SegmentMaxBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
		active = &l.segments[len(l.segments)-1]
	}
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	if _, err := l.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if _, err := l.w.Write(payload); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	active.bytes += frameHeaderLen + int64(len(payload))
	active.fence = active.bytes
	l.appends++
	return nil
}

// Sync flushes and fsyncs the active segment. A no-op before the first
// append.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.f == nil {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	t0 := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.syncDur.Record(time.Since(t0))
	l.syncs++
	return nil
}

// ensureWritableLocked opens the active segment for appending. On first use
// with pre-existing segments it scans the last one and truncates a torn tail
// so new records start at the last whole frame.
func (l *Log) ensureWritableLocked() error {
	if l.f != nil {
		return nil
	}
	if len(l.segments) == 0 {
		return l.createSegmentLocked(1)
	}
	seg := &l.segments[len(l.segments)-1]
	valid, err := validSegmentSize(seg.path)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(seg.path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	if valid < seg.bytes {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		seg.bytes = valid
		l.tornTruncs++
	}
	seg.fence = seg.bytes
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("wal: open segment: %w", err)
	}
	l.f, l.w = f, bufio.NewWriter(f)
	if seg.bytes < int64(len(segMagic)) {
		// The tear reached into the segment header itself (or the crash hit
		// between create and header write): restore the magic so the file is
		// a valid, empty segment again.
		if _, err := l.w.Write(segMagic[seg.bytes:]); err != nil {
			f.Close()
			l.f, l.w = nil, nil
			return fmt.Errorf("wal: repair segment header: %w", err)
		}
		if err := l.w.Flush(); err != nil {
			f.Close()
			l.f, l.w = nil, nil
			return fmt.Errorf("wal: repair segment header: %w", err)
		}
		seg.bytes = int64(len(segMagic))
		seg.fence = seg.bytes
	}
	return nil
}

// createSegmentLocked starts a fresh active segment with the given index.
func (l *Log) createSegmentLocked(index int64) error {
	path := segPath(l.dir, index)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	w := bufio.NewWriter(f)
	if _, err := w.Write(segMagic[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("wal: create segment: %w", err)
	}
	l.segments = append(l.segments, segment{index: index, path: path, bytes: int64(len(segMagic)), fence: int64(len(segMagic))})
	l.f, l.w = f, w
	return nil
}

// Rotate seals the active segment (flush + fsync + close) and starts the
// next one. Snapshotters rotate before checkpointing so every record taken
// into the snapshot lives in a sealed segment that DropSegmentsThrough can
// delete afterwards. Rotating an untouched log is a no-op.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: rotate on closed log")
	}
	if err := l.ensureWritableLocked(); err != nil {
		return err
	}
	if l.segments[len(l.segments)-1].bytes <= int64(len(segMagic)) {
		return nil // active segment has no records; nothing to seal
	}
	return l.rotateLocked()
}

func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	l.f, l.w = nil, nil
	return l.createSegmentLocked(l.segments[len(l.segments)-1].index + 1)
}

// ActiveSegment reports the index of the segment the next append lands in
// (the last segment, or the first one a fresh log will create).
func (l *Log) ActiveSegment() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segments) == 0 {
		return 1
	}
	return l.segments[len(l.segments)-1].index
}

// DropSegmentsThrough deletes sealed segments with index <= through; the
// active segment is never deleted. Snapshotters call it once a checkpoint
// covers those records.
func (l *Log) DropSegmentsThrough(through int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	keep := l.segments[:0]
	for i, seg := range l.segments {
		if seg.index <= through && i < len(l.segments)-1 {
			if err := os.Remove(seg.path); err != nil {
				// Keep the bookkeeping consistent with the directory even on
				// a partial failure.
				keep = append(keep, l.segments[i:]...)
				l.segments = keep
				return fmt.Errorf("wal: drop segment: %w", err)
			}
			continue
		}
		keep = append(keep, seg)
	}
	l.segments = keep
	return nil
}

// SegmentInfo describes one segment file to a replication reader: its index,
// its fenced size (bytes guaranteed to end on a whole-record boundary), and
// whether it is sealed (rotated away and so will never grow again).
type SegmentInfo struct {
	// Index is the segment number (the NNN of seg-NNN.wal).
	Index int64 `json:"index"`
	// Bytes is the fenced size: a reader that stays below it sees only whole
	// records, never a torn tail, even while the segment is being appended.
	Bytes int64 `json:"bytes"`
	// Sealed is true for every segment but the active one.
	Sealed bool `json:"sealed"`
}

// Segments lists the live segments oldest-first with their fenced sizes.
// Replication primaries publish this as (part of) their manifest.
func (l *Log) Segments() ([]SegmentInfo, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SegmentInfo, len(l.segments))
	for i := range l.segments {
		fence, err := l.fenceLocked(i)
		if err != nil {
			return nil, err
		}
		out[i] = SegmentInfo{Index: l.segments[i].index, Bytes: fence, Sealed: i < len(l.segments)-1}
	}
	return out, nil
}

// fenceLocked resolves segment i's whole-record fence. Sealed segments and a
// writer-attached active segment are fenced at their tracked size (every
// record is flushed whole under the append lock); the final segment of a log
// that has not been written since Open may carry a crash's torn tail, so its
// fence is established by a one-time scan and cached.
func (l *Log) fenceLocked(i int) (int64, error) {
	seg := &l.segments[i]
	if i < len(l.segments)-1 || l.f != nil {
		return seg.bytes, nil
	}
	if seg.fence < 0 {
		valid, err := validSegmentSize(seg.path)
		if err != nil {
			return 0, err
		}
		seg.fence = valid
	}
	return seg.fence, nil
}

// ErrNoSegment reports a read of a segment the log no longer has (typically
// dropped by a checkpoint after the reader fetched the manifest).
var ErrNoSegment = errors.New("wal: no such segment")

// ErrPastFence reports a read offset beyond a segment's whole-record fence —
// the reader believes the segment is longer than the log does, which means
// the two have diverged (e.g. the primary lost unsynced bytes to a power
// failure) and the reader must resynchronize from a snapshot.
var ErrPastFence = errors.New("wal: read offset past segment fence")

// ReadSegmentAt returns up to max raw bytes of the given segment starting at
// byte offset off, never crossing the whole-record fence — so a reader
// chasing the active segment can never observe a torn record as damage. The
// returned SegmentInfo carries the fence at read time; an empty slice with
// off == info.Bytes means "caught up, poll again".
func (l *Log) ReadSegmentAt(index, off int64, max int) ([]byte, SegmentInfo, error) {
	if max <= 0 || off < 0 {
		return nil, SegmentInfo{}, fmt.Errorf("wal: read segment %d: bad offset %d / max %d", index, off, max)
	}
	l.mu.Lock()
	var info SegmentInfo
	var path string
	found := false
	for i := range l.segments {
		if l.segments[i].index != index {
			continue
		}
		fence, err := l.fenceLocked(i)
		if err != nil {
			l.mu.Unlock()
			return nil, SegmentInfo{}, err
		}
		info = SegmentInfo{Index: index, Bytes: fence, Sealed: i < len(l.segments)-1}
		path = l.segments[i].path
		found = true
		break
	}
	l.mu.Unlock()
	if !found {
		return nil, SegmentInfo{}, fmt.Errorf("%w: segment %d", ErrNoSegment, index)
	}
	if off > info.Bytes {
		return nil, info, fmt.Errorf("%w: segment %d, offset %d, fence %d", ErrPastFence, index, off, info.Bytes)
	}
	if off == info.Bytes {
		return nil, info, nil
	}
	n := info.Bytes - off
	if int64(max) < n {
		n = int64(max)
	}
	// Read without the lock: bytes below the fence are immutable (appends
	// only extend the file, truncation only removes bytes past the fence).
	f, err := os.Open(path)
	if err != nil {
		return nil, info, fmt.Errorf("wal: read segment %d: %w", index, err)
	}
	defer f.Close()
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, info, fmt.Errorf("wal: read segment %d: %w", index, err)
	}
	return buf, info, nil
}

// TailState classifies what ScanRecords found past the last whole record.
type TailState int

const (
	// TailClean: the scan ended exactly on a record boundary.
	TailClean TailState = iota
	// TailPartial: a record frame has started but its bytes are not all
	// there yet. For a reader chasing a growing file this means "wait for
	// more"; after a crash it is a torn tail to truncate at the returned
	// offset.
	TailPartial
	// TailInvalid: a complete frame is present but damaged (insane length or
	// checksum mismatch). No future append can repair it — this is
	// corruption, not a tail still being written.
	TailInvalid
)

// ScanRecords streams the whole records of one segment file to fn, starting
// at byte offset off (use 0 to start at the segment header) and stopping at
// the first incomplete or invalid frame. It returns the offset just past the
// last whole record consumed and the state of whatever follows it, so an
// incremental reader — a replication follower chasing a mirrored segment —
// can resume exactly where it left off and distinguish "more bytes coming"
// (TailPartial) from real damage (TailInvalid). fn's error stops the scan
// verbatim; fn may be nil to only classify.
func ScanRecords(path string, off int64, fn func(payload []byte) error) (next int64, tail TailState, err error) {
	f, err := os.Open(path)
	if err != nil {
		return off, TailClean, fmt.Errorf("wal: scan records: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return off, TailClean, fmt.Errorf("wal: scan records: %w", err)
	}
	if off == 0 {
		var mg [8]byte
		switch _, err := io.ReadFull(f, mg[:]); {
		case err == io.EOF:
			return 0, TailClean, nil // empty file: crash between create and header write
		case err == io.ErrUnexpectedEOF:
			return 0, TailPartial, nil // header not fully written yet
		case err != nil:
			return 0, TailClean, fmt.Errorf("wal: scan records: %w", err)
		case mg != segMagic:
			return 0, TailInvalid, fmt.Errorf("wal: segment %s: bad magic %q", filepath.Base(path), mg[:])
		}
		off = int64(len(segMagic))
	} else if _, err := f.Seek(off, io.SeekStart); err != nil {
		return off, TailClean, fmt.Errorf("wal: scan records: %w", err)
	}
	br := bufio.NewReader(f)
	var hdr [frameHeaderLen]byte
	var buf []byte
	for {
		switch _, err := io.ReadFull(br, hdr[:]); {
		case err == io.EOF:
			return off, TailClean, nil
		case err == io.ErrUnexpectedEOF:
			return off, TailPartial, nil
		case err != nil:
			return off, TailClean, fmt.Errorf("wal: scan records: %w", err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:])
		want := binary.LittleEndian.Uint32(hdr[4:])
		if int64(n) > maxRecordBytes {
			return off, TailInvalid, fmt.Errorf("wal: segment %s: record length %d exceeds limit at offset %d", filepath.Base(path), n, off)
		}
		// A declared length is trusted only as far as the file backs it: the
		// check comes before the allocation, so a damaged header cannot size
		// a buffer the file could never fill.
		if int64(n) > info.Size()-off-frameHeaderLen {
			return off, TailPartial, nil
		}
		if int(n) > len(buf) {
			buf = make([]byte, n)
		}
		switch _, err := io.ReadFull(br, buf[:n]); {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			return off, TailPartial, nil // the file shrank under the scan
		case err != nil:
			return off, TailClean, fmt.Errorf("wal: scan records: %w", err)
		}
		if crc32.Checksum(buf[:n], crcTable) != want {
			return off, TailInvalid, fmt.Errorf("wal: segment %s: checksum mismatch at offset %d", filepath.Base(path), off)
		}
		if fn != nil {
			if err := fn(buf[:n]); err != nil {
				return off, TailClean, err
			}
		}
		off += frameHeaderLen + int64(n)
	}
}

// Stats reports the log's current size counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Stats{Segments: len(l.segments), Appends: l.appends, Syncs: l.syncs, TornTruncations: l.tornTruncs}
	for _, seg := range l.segments {
		s.Bytes += seg.bytes
	}
	return s
}

// SyncDurations freezes the distribution of fsync wall times since Open.
func (l *Log) SyncDurations() *hist.Snapshot {
	return l.syncDur.Snapshot()
}

// Close flushes, fsyncs, and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f, l.w = nil, nil
	return err
}

// Replay streams every whole record, oldest first, to fn; the payload slice
// is only valid during the call. It stops early when fn returns an error
// (returned verbatim). A partial or damaged record at the tail of the final
// segment ends the stream with a wrapped ErrTornWrite — the expected shape
// after a crash; the torn bytes are truncated away by the next Append. The
// same damage anywhere else is reported as corruption.
//
// Replay reads the segment files directly and may run on a Log that is also
// being appended to only if the caller provides the exclusion (the matcher
// replays before it starts appending).
func (l *Log) Replay(fn func(payload []byte) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segments...)
	l.mu.Unlock()
	for i, seg := range segs {
		next, tail, err := ScanRecords(seg.path, 0, fn)
		switch {
		case tail == TailClean && err == nil:
			continue
		case tail == TailClean, tail == TailInvalid && next == 0:
			return err // fn's error or an I/O failure; a foreign file (bad magic)
		}
		what := "partial record"
		if err != nil {
			what = err.Error()
		}
		base := filepath.Base(seg.path)
		if i == len(segs)-1 {
			return fmt.Errorf("%w: segment %s, offset %d: %s", ErrTornWrite, base, next, what)
		}
		return fmt.Errorf("wal: segment %s: corrupt record at offset %d: %s", base, next, what)
	}
	return nil
}

// validSegmentSize scans a segment and returns the byte offset just past the
// last whole record (0 for a file whose magic is itself partial).
func validSegmentSize(path string) (int64, error) {
	next, tail, err := ScanRecords(path, 0, nil)
	if err != nil {
		// A damaged frame past a valid prefix just bounds the prefix here;
		// only "nothing valid at all" (bad magic, unreadable file) is fatal.
		if tail == TailInvalid && next > 0 {
			return next, nil
		}
		return 0, err
	}
	return next, nil
}
