package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/multiem"
	"repro/internal/wal"
)

// Config configures a follower.
type Config struct {
	// PrimaryURL is the primary's base URL (scheme://host:port).
	PrimaryURL string
	// Dir is the local mirror directory. Its layout is byte-for-byte the
	// primary's durability layout, so on promotion it simply becomes one.
	Dir string
	// Opt supplies what a loaded matcher cannot take from its file: the
	// encoder, which the snapshot's probes check (multiem.LoadMatcher), and
	// the query beam HNSW.EfSearch. M and the shard count come from the
	// primary's snapshot.
	Opt multiem.Options
	// WAL configures the log opened at promotion (fsync policy, intervals);
	// Dir is overridden with the mirror directory.
	WAL multiem.WALConfig
	// Poll is the steady-state fetch interval; <= 0 means 250ms.
	Poll time.Duration
	// Timeout bounds each HTTP request; <= 0 means 10s.
	Timeout time.Duration
	// MaxBackoff caps the exponential backoff after fetch failures; <= 0
	// means 5s.
	MaxBackoff time.Duration
	// ChunkBytes bounds one segment fetch; <= 0 means 1 MiB.
	ChunkBytes int
	// PromoteAfter self-promotes when the primary has been unreachable this
	// long (measured from the last successful manifest); 0 disables the
	// policy and promotion is manual only.
	PromoteAfter time.Duration
	// OnAutoPromote, if set, is called once after a successful
	// PromoteAfter-triggered promotion (the serving layer flips roles).
	OnAutoPromote func()
	// Logf receives progress and error lines; nil discards them.
	Logf func(format string, args ...any)
}

// Stats is the follower's replication position, served under /stats.
type Stats struct {
	// Role is "follower", or "primary" after promotion.
	Role string `json:"role"`
	// PrimaryURL is the primary this follower ships from.
	PrimaryURL string `json:"primary_url"`
	// Term is the highest fencing term acknowledged (or minted, once
	// promoted).
	Term uint64 `json:"term"`
	// Bootstrapped is true once a snapshot is loaded and serving.
	Bootstrapped bool `json:"bootstrapped"`
	// NextSeq is the next batch sequence the follower will apply.
	NextSeq uint64 `json:"next_seq"`
	// PrimaryNextSeq is the primary's NextSeq from the last manifest.
	PrimaryNextSeq uint64 `json:"primary_next_seq"`
	// LagBatches is PrimaryNextSeq - NextSeq (0 when caught up).
	LagBatches uint64 `json:"lag_batches"`
	// LagBytes is the segment bytes the primary has that the mirror does
	// not, as of the last manifest.
	LagBytes int64 `json:"lag_bytes"`
	// BytesFetched counts mirrored bytes since start (snapshots included).
	BytesFetched int64 `json:"bytes_fetched"`
	// FetchErrors counts failed fetch rounds since start.
	FetchErrors int64 `json:"fetch_errors"`
	// Resyncs counts full re-bootstraps from a snapshot since start.
	Resyncs int64 `json:"resyncs"`
	// SinceContactMs is the time since the last successful manifest, in
	// milliseconds; -1 before the first one.
	SinceContactMs int64 `json:"since_contact_ms"`
}

// errGap reports that the primary no longer retains bytes the mirror needs:
// continuing would skip batches, so the follower must resync from a
// snapshot.
var errGap = errors.New("repl: primary dropped segments the mirror still needs")

// errManifestFormat reports a manifest in another wire format — an older or
// newer primary. Primary and followers upgrade together; until they have,
// nothing the manifest lists can be trusted to mean what this build thinks.
var errManifestFormat = errors.New("repl: primary speaks a different manifest format (upgrade primary and followers together)")

// errStaleTerm reports a manifest with a term below the persisted one — a
// revived old primary. Its data must not be applied.
var errStaleTerm = errors.New("repl: primary term is below the acknowledged term (fenced)")

// segMirror tracks one mirrored segment file.
type segMirror struct {
	index    int64
	mirrored int64 // local file size: also the resume offset for fetches
	scanned  int64 // offset already fed to the replicator
	sealed   int64 // final size per manifest; -1 while unknown
}

// Follower mirrors a primary and keeps a serving matcher caught up. Start it
// with Start; reads go through Matcher (nil until bootstrapped); Promote
// turns it into a primary.
type Follower struct {
	cfg    Config
	client *http.Client

	// matcher and repl are published once bootstrap completes and replaced
	// wholesale on resync; readers (the HTTP layer) load them atomically.
	matcher atomic.Pointer[multiem.Matcher]
	repl    atomic.Pointer[multiem.Replicator]

	// segs is the mirror state, ascending by segment index — the order the
	// replicator must be fed in; owned by the fetch loop.
	segs []*segMirror

	term           atomic.Uint64
	primaryNextSeq atomic.Uint64
	lagBytes       atomic.Int64
	bytesFetched   atomic.Int64
	fetchErrs      atomic.Int64
	resyncs        atomic.Int64
	lastContact    atomic.Int64 // unix nanos of last successful manifest; 0 = never
	promoted       atomic.Bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// Start creates the mirror directory, adopts any persisted term, and
// launches the fetch loop. Bootstrap happens inside the loop: Matcher
// returns nil (serve 503) until the first snapshot is loaded — from local
// mirror state when restarting, from the primary otherwise.
func Start(cfg Config) (*Follower, error) {
	if cfg.PrimaryURL == "" || cfg.Dir == "" {
		return nil, errors.New("repl: follower needs PrimaryURL and Dir")
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 250 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 1 << 20
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := multiem.CheckWALLayout(cfg.Dir); err != nil {
		return nil, err // promotion would refuse it; say so now, not mid-failover
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("repl: mirror dir: %w", err)
	}
	term, err := LoadTerm(cfg.Dir)
	if err != nil {
		return nil, err
	}
	f := &Follower{
		cfg:    cfg,
		client: &http.Client{},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	f.term.Store(term)
	go f.loop()
	return f, nil
}

// Matcher returns the serving matcher, or nil before bootstrap completes.
func (f *Follower) Matcher() *multiem.Matcher { return f.matcher.Load() }

// Promoted reports whether this follower has been promoted to primary.
func (f *Follower) Promoted() bool { return f.promoted.Load() }

// Term reports the highest fencing term acknowledged or minted.
func (f *Follower) Term() uint64 { return f.term.Load() }

// Stats snapshots the replication position.
func (f *Follower) Stats() Stats {
	st := Stats{
		Role:           "follower",
		PrimaryURL:     f.cfg.PrimaryURL,
		Term:           f.term.Load(),
		PrimaryNextSeq: f.primaryNextSeq.Load(),
		LagBytes:       f.lagBytes.Load(),
		BytesFetched:   f.bytesFetched.Load(),
		FetchErrors:    f.fetchErrs.Load(),
		Resyncs:        f.resyncs.Load(),
		SinceContactMs: -1,
	}
	if f.promoted.Load() {
		st.Role = "primary"
	}
	if r := f.repl.Load(); r != nil {
		st.Bootstrapped = true
		st.NextSeq = r.NextSeq()
	}
	if st.PrimaryNextSeq > st.NextSeq {
		st.LagBatches = st.PrimaryNextSeq - st.NextSeq
	}
	if last := f.lastContact.Load(); last > 0 {
		st.SinceContactMs = time.Since(time.Unix(0, last)).Milliseconds()
	}
	return st
}

// Close stops the fetch loop. The matcher keeps serving whatever it has.
func (f *Follower) Close() error {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
	return nil
}

// Promote stops the fetch loop, mints and persists a term above every one
// seen, and reopens the mirror as a live WAL (multiem.Replicator.Promote):
// whatever was mirrored but not applied is checkpointed away, and the
// matcher flips writable. Safe to call once; later calls (and calls
// racing the auto-promotion policy) return nil if already promoted.
func (f *Follower) Promote() error {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
	return f.promote()
}

func (f *Follower) promote() error {
	if f.promoted.Load() {
		return nil
	}
	r := f.repl.Load()
	if r == nil {
		return errors.New("repl: cannot promote before bootstrap (no state to serve)")
	}
	newTerm := f.term.Load() + 1
	if err := StoreTerm(f.cfg.Dir, newTerm); err != nil {
		return err
	}
	f.term.Store(newTerm)
	wcfg := f.cfg.WAL
	wcfg.Dir = f.cfg.Dir
	if err := r.Promote(wcfg); err != nil {
		return err
	}
	f.promoted.Store(true)
	f.cfg.Logf("repl: promoted to primary at seq %d, term %d", r.NextSeq(), newTerm)
	return nil
}

// loop is the fetch loop: sync, sleep (poll or capped exponential backoff
// with jitter), repeat; on PromoteAfter expiry it self-promotes and exits.
func (f *Follower) loop() {
	defer close(f.done)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	failures := 0
	for {
		err := f.syncOnce()
		if err != nil {
			failures++
			f.fetchErrs.Add(1)
			f.cfg.Logf("repl: sync: %v", err)
		} else {
			failures = 0
		}
		delay := f.cfg.Poll
		if failures > 0 {
			// Capped exponential backoff with full jitter over the upper
			// half: failures never synchronize a fleet of followers into
			// hammering a recovering primary.
			backoff := f.cfg.Poll << uint(min(failures-1, 16))
			if backoff <= 0 || backoff > f.cfg.MaxBackoff {
				backoff = f.cfg.MaxBackoff
			}
			delay = backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1))
		}
		if f.cfg.PromoteAfter > 0 {
			if last := f.lastContact.Load(); last > 0 && time.Since(time.Unix(0, last)) > f.cfg.PromoteAfter && f.repl.Load() != nil {
				f.cfg.Logf("repl: primary unreachable for %v, self-promoting", f.cfg.PromoteAfter)
				f.stopOnce.Do(func() { close(f.stop) })
				go f.autoPromote()
				return
			}
		}
		select {
		case <-f.stop:
			return
		case <-time.After(delay):
		}
	}
}

// autoPromote runs the PromoteAfter policy off the loop goroutine (Promote
// waits for the loop to exit first).
func (f *Follower) autoPromote() {
	if err := f.Promote(); err != nil {
		f.cfg.Logf("repl: auto-promotion failed: %v", err)
		return
	}
	if f.cfg.OnAutoPromote != nil {
		f.cfg.OnAutoPromote()
	}
}

// syncOnce is one fetch round: manifest, term check, bootstrap or resync if
// needed, mirror missing bytes, feed the replicator.
func (f *Follower) syncOnce() error {
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.Timeout)
	man, err := f.fetchManifest(ctx)
	cancel()
	if err != nil {
		return err
	}
	if man.Term < f.term.Load() {
		return fmt.Errorf("%w: got %d, have %d", errStaleTerm, man.Term, f.term.Load())
	}
	if man.Term > f.term.Load() {
		// A newer primary exists (e.g. we point at a promoted follower):
		// acknowledge its term durably before consuming its data.
		if err := StoreTerm(f.cfg.Dir, man.Term); err != nil {
			return err
		}
		f.term.Store(man.Term)
	}
	f.lastContact.Store(time.Now().UnixNano())
	f.primaryNextSeq.Store(man.NextSeq)

	if f.repl.Load() == nil {
		if err := f.bootstrap(man); err != nil {
			return err
		}
	}
	applied, err := f.pull(man)
	if errors.Is(err, errGap) || errors.Is(err, multiem.ErrSeqGap) {
		f.cfg.Logf("repl: %v; resyncing from a fresh snapshot", err)
		return f.resync(man)
	}
	if errors.Is(err, multiem.ErrLogMismatch) {
		// Only a snapshot goes past a refusal. It counts as a failed round: with
		// options unlike the primary's every resync meets it again, at backoff.
		f.cfg.Logf("repl: %v; resyncing from a fresh snapshot", err)
		return errors.Join(err, f.resync(man))
	}
	if err != nil {
		return err
	}
	// Stall check: everything mirrored is applied, yet the primary's newest
	// snapshot covers sequences we never saw — the batches in between were
	// checkpointed away before we fetched them. Only a resync can catch up.
	if newest, ok := man.newestSnapshot(); ok && applied == 0 {
		if r := f.repl.Load(); r != nil && r.NextSeq() < newest.Seq && f.allScanned() {
			f.cfg.Logf("repl: stalled at seq %d behind snapshot %d; resyncing", r.NextSeq(), newest.Seq)
			return f.resync(man)
		}
	}
	return nil
}

// bootstrap establishes the serving matcher: from the newest local mirror
// snapshot that loads when restarting, else by fetching the primary's newest
// snapshot. The mirror's segment files are then rescanned from zero — the
// replicator skips sequences the snapshot already covers.
func (f *Follower) bootstrap(man *Manifest) error {
	m, seq, path, err := f.loadMirroredSnapshot()
	if err != nil {
		return err
	}
	if m == nil {
		entry, have := man.newestSnapshot()
		if !have {
			return errors.New("repl: primary has no snapshot to bootstrap from")
		}
		if err := f.fetchSnapshot(entry); err != nil {
			return err
		}
		seq, path = entry.Seq, multiem.SnapshotFile(f.cfg.Dir, entry.Seq)
		if m, err = loadSnapshot(path, f.cfg.Opt); err != nil {
			return fmt.Errorf("repl: load snapshot seq %d: %w", seq, err)
		}
	}
	r := multiem.NewReplicator(m, seq)

	// Adopt whatever segment files are already mirrored; their sealed sizes
	// are unknown until a manifest confirms them.
	f.segs = nil
	entries, err := os.ReadDir(multiem.LogDir(f.cfg.Dir))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	for _, e := range entries {
		idx, ok, err := wal.ParseSegmentName(e.Name())
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		f.mirrorOf(idx).mirrored = info.Size()
	}
	// Publish replicator before matcher: Stats observing the matcher must
	// also see Bootstrapped.
	f.repl.Store(r)
	f.matcher.Store(m)
	f.cfg.Logf("repl: bootstrapped from snapshot seq %d (%s)", seq, path)
	return nil
}

// loadMirroredSnapshot loads the newest mirrored snapshot that loads. One
// that does not (torn by a crash, damaged on disk) is renamed to
// <name>.bad, out of ListSnapshots' sight, and the next newest is tried, so a
// bad file costs a fetch from the primary instead of wedging bootstrap. An
// ErrEncoderMismatch, the follower's own fault, is returned as it is. m is
// nil when no mirrored snapshot is left.
func (f *Follower) loadMirroredSnapshot() (m *multiem.Matcher, seq uint64, path string, err error) {
	for {
		path, seq, ok, err := multiem.LatestSnapshot(f.cfg.Dir)
		if err != nil || !ok {
			return nil, 0, "", err
		}
		m, err := loadSnapshot(path, f.cfg.Opt)
		if err == nil {
			return m, seq, path, nil
		}
		if errors.Is(err, multiem.ErrEncoderMismatch) { // a fetch would not mend it
			return nil, 0, "", fmt.Errorf("repl: load snapshot seq %d: %w", seq, err)
		}
		f.cfg.Logf("repl: mirrored snapshot seq %d does not load (%v); moving it aside to %s.bad", seq, err, filepath.Base(path))
		if err := os.Rename(path, path+".bad"); err != nil {
			return nil, 0, "", err
		}
	}
}

// loadSnapshot loads the matcher a snapshot file holds.
func loadSnapshot(path string, opt multiem.Options) (*multiem.Matcher, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	return multiem.LoadMatcher(file, opt)
}

// resync abandons the current state and re-bootstraps from the primary's
// newest snapshot: the serving matcher keeps answering reads from its stale
// view until the fresh one atomically replaces it.
func (f *Follower) resync(man *Manifest) error {
	entry, ok := man.newestSnapshot()
	if !ok {
		return errors.New("repl: resync needed but primary has no snapshot")
	}
	if err := f.fetchSnapshot(entry); err != nil {
		return err
	}
	// Drop mirrored segments wholesale: the fresh snapshot covers them, and
	// partial files below the new position would only confuse adoption. The
	// log directory holds nothing else — snapshots and the term sit beside it.
	if err := os.RemoveAll(multiem.LogDir(f.cfg.Dir)); err != nil {
		return err
	}
	f.repl.Store(nil)
	f.resyncs.Add(1)
	return f.bootstrap(man)
}

// mirrorOf returns the state of mirrored segment index, inserting an empty
// one in index order when the mirror has none yet.
func (f *Follower) mirrorOf(index int64) *segMirror {
	i := sort.Search(len(f.segs), func(i int) bool { return f.segs[i].index >= index })
	if i == len(f.segs) || f.segs[i].index != index {
		f.segs = slices.Insert(f.segs, i, &segMirror{index: index, sealed: -1})
	}
	return f.segs[i]
}

// pull mirrors every byte the manifest lists that the mirror lacks, then
// drains them into the replicator; it returns the batches applied.
func (f *Follower) pull(man *Manifest) (applied int, err error) {
	var lag int64
	if len(man.Segments) > 0 {
		lo := man.Segments[0].Index
		// Segments that vanished from the manifest were dropped by a
		// checkpoint. That is fine for fully mirrored ones; a partial mirror
		// of a dropped segment is a hole we can never fill.
		for _, st := range f.segs {
			if st.index < lo && (st.sealed < 0 || st.mirrored < st.sealed) {
				return 0, fmt.Errorf("%w: segment %d", errGap, st.index)
			}
		}
		if n := len(f.segs); n > 0 && lo > f.segs[n-1].index+1 {
			return 0, fmt.Errorf("%w: log jumps to segment %d past %d", errGap, lo, f.segs[n-1].index)
		}
	}
	for _, seg := range man.Segments {
		st := f.mirrorOf(seg.Index)
		if seg.Sealed {
			st.sealed = seg.Bytes
		}
		if st.mirrored > seg.Bytes {
			// The mirror is ahead of the primary's fence: the primary lost
			// unsynced bytes in a crash, or this is a different history.
			// Resync rather than guess.
			return 0, fmt.Errorf("%w: segment %d mirrored %d past fence %d", errGap, seg.Index, st.mirrored, seg.Bytes)
		}
		if st.mirrored < seg.Bytes {
			if err := f.fetchSegment(seg, st); err != nil {
				return 0, err
			}
		}
		lag += seg.Bytes - st.mirrored
	}
	f.lagBytes.Store(lag)
	return f.drain()
}

// drain feeds the records mirrored since the last round to the replicator as
// one round, oldest segment first — Apply takes batches in log order.
func (f *Follower) drain() (applied int, err error) {
	if f.allScanned() {
		return 0, nil
	}
	r := f.repl.Load()
	before := r.NextSeq()
	dir := multiem.LogDir(f.cfg.Dir)
	err = r.Apply(func(fn func(payload []byte) error) error {
		for _, st := range f.segs {
			if st.scanned >= st.mirrored {
				continue
			}
			// TailPartial below the fence cannot happen (fetches stop at
			// whole-record fences); at the fence it just means the next chunk
			// has not arrived. A damaged frame comes back as an error.
			next, _, err := wal.ScanRecords(wal.SegmentFile(dir, st.index), st.scanned, fn)
			if err != nil {
				return fmt.Errorf("repl: segment %d: %w", st.index, err)
			}
			st.scanned = next
		}
		return nil
	})
	// Any other failure published the segments scanned whole; a refusal published
	// nothing, and if its resync fails the next poll must meet it again.
	if errors.Is(err, multiem.ErrLogMismatch) {
		for _, st := range f.segs {
			st.scanned = 0
		}
	}
	return int(r.NextSeq() - before), err
}

// allScanned reports whether every mirrored byte has been fed to the
// replicator — the precondition for declaring a stall.
func (f *Follower) allScanned() bool {
	for _, st := range f.segs {
		if st.scanned < st.mirrored {
			return false
		}
	}
	return true
}

// fetchManifest GETs and decodes /repl/manifest.
func (f *Follower) fetchManifest(ctx context.Context) (*Manifest, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.cfg.PrimaryURL+"/repl/manifest", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("repl: manifest: %s", resp.Status)
	}
	var man Manifest
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&man); err != nil {
		return nil, fmt.Errorf("repl: manifest: %w", err)
	}
	if man.Format != ManifestFormat {
		return nil, fmt.Errorf("%w: got format %d, want %d", errManifestFormat, man.Format, ManifestFormat)
	}
	return &man, nil
}

// fetchSnapshot downloads one checkpoint, verifies its CRC, writes it into
// the mirror with wal.WriteFileAtomic, and prunes the mirrored snapshots by
// the primary's rule: the newest cfg.WAL.SnapshotKeep stay.
func (f *Follower) fetchSnapshot(entry SnapshotEntry) error {
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.Timeout)
	defer cancel()
	url := fmt.Sprintf("%s/repl/snapshot/%d", f.cfg.PrimaryURL, entry.Seq)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: snapshot %d: %s", entry.Seq, resp.Status)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, entry.Bytes+1))
	if err != nil {
		return fmt.Errorf("repl: snapshot %d: %w", entry.Seq, err)
	}
	if int64(len(raw)) != entry.Bytes || wal.CRC(raw) != entry.CRC {
		return fmt.Errorf("repl: snapshot %d: body does not match manifest (%d bytes)", entry.Seq, len(raw))
	}
	err = wal.WriteFileAtomic(multiem.SnapshotFile(f.cfg.Dir, entry.Seq), func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	})
	if err != nil {
		return err
	}
	f.bytesFetched.Add(entry.Bytes)
	if err := multiem.DropOldSnapshots(f.cfg.Dir, f.cfg.WAL.SnapshotKeep); err != nil {
		return err
	}
	f.cfg.Logf("repl: fetched snapshot seq %d (%d bytes)", entry.Seq, entry.Bytes)
	return nil
}

// fetchSegment appends the missing byte range [st.mirrored, seg.Bytes) of
// one segment to its mirror file, in chunks, resuming from the local size;
// a sealed segment is CRC-checked once complete.
func (f *Follower) fetchSegment(seg SegmentEntry, st *segMirror) error {
	dir := multiem.LogDir(f.cfg.Dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := wal.SegmentFile(dir, seg.Index)
	for st.mirrored < seg.Bytes {
		n, err := f.fetchChunk(seg.Index, path, st.mirrored, seg.Bytes)
		if err != nil {
			return err
		}
		if n == 0 {
			// The primary's fence moved backwards from the manifest's
			// promise — divergence; the pull loop will flag it next round.
			break
		}
		st.mirrored += n
		f.bytesFetched.Add(n)
	}
	if st.sealed >= 0 && st.mirrored == st.sealed && seg.CRC != 0 {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if wal.CRC(raw) != seg.CRC {
			return fmt.Errorf("%w: segment %d fails its manifest CRC", errGap, seg.Index)
		}
	}
	return nil
}

// fetchChunk GETs one byte range and appends it to the mirror file, checking
// the local size against the requested offset first — the file is the
// resume cursor, so it must never diverge from it.
func (f *Follower) fetchChunk(index int64, path string, off, limit int64) (int64, error) {
	want := limit - off
	if want > int64(f.cfg.ChunkBytes) {
		want = int64(f.cfg.ChunkBytes)
	}
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.Timeout)
	defer cancel()
	url := fmt.Sprintf("%s/repl/segment/%d?off=%d&max=%d", f.cfg.PrimaryURL, index, off, want)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound, http.StatusConflict:
		return 0, fmt.Errorf("%w: segment %d: %s", errGap, index, resp.Status)
	default:
		return 0, fmt.Errorf("repl: segment %d: %s", index, resp.Status)
	}
	if term := resp.Header.Get("X-Repl-Term"); term != "" {
		if t, err := strconv.ParseUint(term, 10, 64); err == nil && t < f.term.Load() {
			return 0, errStaleTerm
		}
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, want))
	if err != nil {
		return 0, err
	}
	if len(raw) == 0 {
		return 0, nil
	}
	file, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	defer file.Close()
	info, err := file.Stat()
	if err != nil {
		return 0, err
	}
	if info.Size() != off {
		return 0, fmt.Errorf("repl: mirror %s is %d bytes but cursor says %d", path, info.Size(), off)
	}
	if _, err := file.Write(raw); err != nil {
		return 0, err
	}
	return int64(len(raw)), nil
}
