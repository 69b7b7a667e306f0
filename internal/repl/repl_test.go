package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/multiem"
	"repro/internal/table"
	"repro/internal/wal"
)

func testOpts(shards int) multiem.Options {
	o := multiem.DefaultOptions()
	o.M = 0.5
	o.Gamma = 0.9
	o.Eps = 1.0
	o.Shards = shards
	return o
}

func smallGeo(t *testing.T) *table.Dataset {
	t.Helper()
	d, err := datagen.GenerateByName("Geo", 0.3, 11)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// randomBatches mirrors the multiem durability-test generator: seeded
// batches mixing near-duplicates, intra-batch duplicates, and singletons.
func randomBatches(d *table.Dataset, n, rowsPer int, seed int64) [][][]string {
	rng := rand.New(rand.NewSource(seed))
	byID := d.EntityByID()
	var ids []int
	for id := range byID {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	batches := make([][][]string, n)
	for b := range batches {
		rows := make([][]string, rowsPer)
		for r := range rows {
			switch rng.Intn(3) {
			case 0:
				e := byID[ids[rng.Intn(len(ids))]]
				row := append([]string(nil), e.Values...)
				row[0] = strings.ToLower(row[0])
				rows[r] = row
			case 1:
				if r > 0 {
					rows[r] = append([]string(nil), rows[r-1]...)
				} else {
					rows[r] = []string{fmt.Sprintf("solo %d %d", b, r), "1.0", "2.0"}
				}
			default:
				rows[r] = []string{fmt.Sprintf("fresh place %d-%d-%d", b, r, rng.Intn(999)), fmt.Sprintf("%d.5", rng.Intn(80)), fmt.Sprintf("-%d.25", rng.Intn(60))}
			}
		}
		batches[b] = rows
	}
	return batches
}

func saveBytes(t *testing.T, m *multiem.Matcher) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newPrimary recovers a durable matcher in dir and wires its replication
// handlers onto an httptest server — the same routes cmd/server registers.
func newPrimary(t *testing.T, d *table.Dataset, dir string, shards int, segMax int64) (*multiem.Matcher, *Primary, *httptest.Server) {
	t.Helper()
	base, err := multiem.BuildMatcher(d, testOpts(shards))
	if err != nil {
		t.Fatal(err)
	}
	raw := saveBytes(t, base)
	cfg := multiem.WALConfig{Dir: dir, Fsync: "off", SegmentMaxBytes: segMax}
	m, err := multiem.RecoverMatcher(cfg, testOpts(shards), func() (*multiem.Matcher, error) {
		return multiem.LoadMatcher(bytes.NewReader(raw), testOpts(shards))
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.CloseWAL() })
	p, err := NewPrimary(m, dir)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /repl/manifest", p.HandleManifest)
	mux.HandleFunc("GET /repl/snapshot/{seq}", p.HandleSnapshot)
	mux.HandleFunc("GET /repl/segment/{index}", p.HandleSegment)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return m, p, srv
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func startFollower(t *testing.T, primaryURL, dir string, shards int) *Follower {
	t.Helper()
	f, err := Start(Config{
		PrimaryURL: primaryURL,
		Dir:        dir,
		Opt:        testOpts(shards),
		WAL:        multiem.WALConfig{Fsync: "off"},
		Poll:       10 * time.Millisecond,
		Timeout:    2 * time.Second,
		MaxBackoff: 50 * time.Millisecond,
		ChunkBytes: 256, // small chunks: exercise resume-from-offset
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestFollowerReplicatesTailAndPromotes is the end-to-end HTTP path: a
// follower bootstraps from the primary's snapshot, chases the live tail to
// byte-identical state, stays read-only, keeps up with further ingest, and
// after the primary dies promotes into a writable primary whose directory
// recovers bit-identically.
func TestFollowerReplicatesTailAndPromotes(t *testing.T) {
	d := smallGeo(t)
	const shards = 4
	primDir := t.TempDir()
	m, p, srv := newPrimary(t, d, primDir, shards, 1<<10)
	if got := p.Term(); got != 1 {
		t.Fatalf("fresh primary term %d, want 1", got)
	}
	for _, rows := range randomBatches(d, 3, 6, 7) {
		if _, err := m.AddRecords(rows); err != nil {
			t.Fatal(err)
		}
	}

	mirror := t.TempDir()
	f := startFollower(t, srv.URL, mirror, shards)
	waitFor(t, 10*time.Second, "bootstrap+catch-up", func() bool {
		st := f.Stats()
		return st.Bootstrapped && st.NextSeq == m.WALStats().NextSeq
	})
	if !bytes.Equal(saveBytes(t, f.Matcher()), saveBytes(t, m)) {
		t.Fatal("caught-up follower is not byte-identical to the primary")
	}
	st := f.Stats()
	if st.Role != "follower" || st.LagBatches != 0 || st.Term != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	if _, err := f.Matcher().AddRecords([][]string{{"x", "1.0", "2.0"}}); !errors.Is(err, multiem.ErrReadOnly) {
		t.Fatalf("follower write: %v, want ErrReadOnly", err)
	}

	// More ingest while the follower is live: the tail chase must follow.
	for _, rows := range randomBatches(d, 3, 6, 31) {
		if _, err := m.AddRecords(rows); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "live tail chase", func() bool {
		return f.Stats().NextSeq == m.WALStats().NextSeq
	})
	if !bytes.Equal(saveBytes(t, f.Matcher()), saveBytes(t, m)) {
		t.Fatal("follower diverges after live tail chase")
	}

	// Primary dies; manual promotion takes over.
	srv.Close()
	finalState := saveBytes(t, m)
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	if !f.Promoted() || f.Stats().Role != "primary" {
		t.Fatal("promotion did not flip the role")
	}
	if f.Term() != 2 {
		t.Fatalf("promoted term %d, want 2", f.Term())
	}
	if term, err := LoadTerm(mirror); err != nil || term != 2 {
		t.Fatalf("persisted term %d (%v), want 2", term, err)
	}
	promoted := f.Matcher()
	if !bytes.Equal(saveBytes(t, promoted), finalState) {
		t.Fatal("promoted state lost acked batches")
	}
	if _, err := promoted.AddRecords([][]string{{"post-promotion row", "3.5", "-4.25"}}); err != nil {
		t.Fatal(err)
	}
	defer promoted.CloseWAL()

	// The promoted mirror is a first-class durability directory.
	rec, err := multiem.RecoverMatcher(multiem.WALConfig{Dir: mirror, Fsync: "off"}, testOpts(shards), func() (*multiem.Matcher, error) {
		return nil, errors.New("base must not be rebuilt")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.CloseWAL()
	if !bytes.Equal(saveBytes(t, rec), saveBytes(t, promoted)) {
		t.Fatal("recovery from the promoted mirror diverges")
	}
}

// TestFollowerRestartResumesFromMirror: a restarted follower bootstraps from
// its local mirror and resumes segment fetches from its local file sizes. A
// mirrored snapshot that does not load is moved aside and fetched again from
// the primary, and a stray file next to a segment ("seg-<n>.wal~", a prefix
// copy) is no segment: neither may keep the follower from the primary's state.
func TestFollowerRestartResumesFromMirror(t *testing.T) {
	for name, damage := range map[string]func(t *testing.T, mirror string){
		"clean": func(*testing.T, string) {},
		"torn snapshot": func(t *testing.T, mirror string) {
			path, _, ok, err := multiem.LatestSnapshot(mirror)
			if err != nil || !ok {
				t.Fatalf("no mirrored snapshot (%v)", err)
			}
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()/2); err != nil {
				t.Fatal(err)
			}
		},
		"stray segment copy": func(t *testing.T, mirror string) {
			seg := wal.SegmentFile(multiem.LogDir(mirror), 1)
			raw, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg+"~", raw[:len(raw)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			d := smallGeo(t)
			const shards = 2
			m, _, srv := newPrimary(t, d, t.TempDir(), shards, 1<<10)
			for _, rows := range randomBatches(d, 2, 6, 5) {
				if _, err := m.AddRecords(rows); err != nil {
					t.Fatal(err)
				}
			}
			mirror := t.TempDir()
			f := startFollower(t, srv.URL, mirror, shards)
			waitFor(t, 10*time.Second, "first catch-up", func() bool {
				return f.Stats().Bootstrapped && f.Stats().NextSeq == m.WALStats().NextSeq
			})
			f.Close()

			damage(t, mirror)
			for _, rows := range randomBatches(d, 2, 6, 17) {
				if _, err := m.AddRecords(rows); err != nil {
					t.Fatal(err)
				}
			}
			f2 := startFollower(t, srv.URL, mirror, shards)
			waitFor(t, 10*time.Second, "resumed catch-up", func() bool {
				return f2.Stats().Bootstrapped && f2.Stats().NextSeq == m.WALStats().NextSeq
			})
			if !bytes.Equal(saveBytes(t, f2.Matcher()), saveBytes(t, m)) {
				t.Fatal("restarted follower diverges")
			}
			if f2.Stats().Resyncs != 0 {
				t.Fatal("restart should resume, not resync")
			}
		})
	}
}

// TestFollowerRetriesFailedScan: a round whose scan fails part-way — here at
// a mirrored frame that fails its checksum until it is repaired — publishes
// the batches before the failure and is retried at the next poll, neither
// sticking nor resyncing; once the scan succeeds the follower reaches the
// primary's exact state and promotes.
func TestFollowerRetriesFailedScan(t *testing.T) {
	d := smallGeo(t)
	const shards, damaged = 2, 2
	m, _, srv := newPrimary(t, d, t.TempDir(), shards, 1<<20)
	for _, rows := range randomBatches(d, 4, 6, 5) {
		if _, err := m.AddRecords(rows); err != nil {
			t.Fatal(err)
		}
	}
	mirror := t.TempDir()
	f := startFollower(t, srv.URL, mirror, shards)
	waitFor(t, 10*time.Second, "first catch-up", func() bool {
		return f.Stats().Bootstrapped && f.Stats().NextSeq == m.WALStats().NextSeq
	})
	f.Close()

	// Damage one byte of batch 2's payload in the mirror's one segment. The
	// restarted follower bootstraps from the mirrored snapshot at seq 0 and
	// rescans the segment from its start.
	entries, err := os.ReadDir(multiem.LogDir(mirror))
	if err != nil || len(entries) != 1 {
		t.Fatalf("mirror log holds %d segments (%v), want 1", len(entries), err)
	}
	seg := filepath.Join(multiem.LogDir(mirror), entries[0].Name())
	var payloads [][]byte
	if _, _, err := wal.ScanRecords(seg, 0, func(p []byte) error {
		payloads = append(payloads, bytes.Clone(p))
		return nil
	}); err != nil || len(payloads) != 4 {
		t.Fatalf("mirror holds %d records (%v), want 4", len(payloads), err)
	}
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	at := int64(bytes.Index(raw, payloads[damaged]))
	writeByte := func(b byte) {
		file, err := os.OpenFile(seg, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		if _, err := file.WriteAt([]byte{b}, at); err != nil {
			t.Fatal(err)
		}
	}
	writeByte(^raw[at])

	f2 := startFollower(t, srv.URL, mirror, shards)
	waitFor(t, 10*time.Second, "rounds failing at the damaged frame", func() bool {
		st := f2.Stats()
		return st.Bootstrapped && st.NextSeq == damaged && st.FetchErrors >= 2
	})
	writeByte(raw[at])
	waitFor(t, 10*time.Second, "catch-up after the repair", func() bool {
		return f2.Stats().NextSeq == m.WALStats().NextSeq
	})
	if !bytes.Equal(saveBytes(t, f2.Matcher()), saveBytes(t, m)) {
		t.Fatal("follower diverges after a failed scan")
	}
	if f2.Stats().Resyncs != 0 {
		t.Fatal("a failed scan should be retried, not resynced")
	}
	if err := f2.Promote(); err != nil {
		t.Fatalf("promote after a failed scan: %v", err)
	}
	f2.Matcher().CloseWAL()
}

// TestFollowerResyncsWhenLogTruncated: the follower goes away, the primary
// checkpoints (dropping the segments the follower still needs), and the
// restarted follower detects the gap and re-bootstraps from a fresh snapshot
// instead of silently skipping batches.
func TestFollowerResyncsWhenLogTruncated(t *testing.T) {
	d := smallGeo(t)
	const shards = 2
	m, _, srv := newPrimary(t, d, t.TempDir(), shards, 1<<10)
	for _, rows := range randomBatches(d, 2, 6, 5) {
		if _, err := m.AddRecords(rows); err != nil {
			t.Fatal(err)
		}
	}
	mirror := t.TempDir()
	f := startFollower(t, srv.URL, mirror, shards)
	waitFor(t, 10*time.Second, "first catch-up", func() bool {
		return f.Stats().Bootstrapped && f.Stats().NextSeq == m.WALStats().NextSeq
	})
	f.Close()

	// Ingest, checkpoint twice: retention drops the old segments AND the old
	// snapshot, so the mirror's position is unreachable from the primary.
	for _, rows := range randomBatches(d, 3, 6, 17) {
		if _, err := m.AddRecords(rows); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, rows := range randomBatches(d, 2, 6, 23) {
		if _, err := m.AddRecords(rows); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}

	f2 := startFollower(t, srv.URL, mirror, shards)
	waitFor(t, 10*time.Second, "resync catch-up", func() bool {
		st := f2.Stats()
		return st.Bootstrapped && st.NextSeq == m.WALStats().NextSeq && st.Resyncs > 0
	})
	if !bytes.Equal(saveBytes(t, f2.Matcher()), saveBytes(t, m)) {
		t.Fatal("resynced follower diverges")
	}
}

// TestFollowerResyncsOnRefusal: a follower whose mirror holds a snapshot of
// another state — the primary's log does not fit it — meets ErrLogMismatch on
// its first round, resyncs from the primary's snapshot instead of retrying the
// refused round for ever, and catches up to the primary's exact state. The
// first snapshot download fails, and with nothing new to mirror the next poll
// still meets the refusal and tries again.
func TestFollowerResyncsOnRefusal(t *testing.T) {
	d := smallGeo(t)
	const shards = 2
	m, p, _ := newPrimary(t, d, t.TempDir(), shards, 1<<10)
	var snapshotGets atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /repl/manifest", p.HandleManifest)
	mux.HandleFunc("GET /repl/segment/{index}", p.HandleSegment)
	mux.HandleFunc("GET /repl/snapshot/{seq}", func(w http.ResponseWriter, r *http.Request) {
		if snapshotGets.Add(1) == 1 {
			http.Error(w, "try again", http.StatusServiceUnavailable)
			return
		}
		p.HandleSnapshot(w, r)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	for _, rows := range randomBatches(d, 3, 6, 7) {
		if _, err := m.AddRecords(rows); err != nil {
			t.Fatal(err)
		}
	}
	other, err := datagen.GenerateByName("Geo", 0.3, 12)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := multiem.BuildMatcher(other, testOpts(shards))
	if err != nil {
		t.Fatal(err)
	}
	mirror := t.TempDir()
	if err := os.WriteFile(multiem.SnapshotFile(mirror, 0), saveBytes(t, foreign), 0o644); err != nil {
		t.Fatal(err)
	}
	var refused atomic.Bool
	f, err := Start(Config{
		PrimaryURL: srv.URL,
		Dir:        mirror,
		Opt:        testOpts(shards),
		Poll:       10 * time.Millisecond,
		Timeout:    2 * time.Second,
		MaxBackoff: 50 * time.Millisecond,
		Logf: func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			if strings.Contains(line, "does not fit this matcher state") && strings.Contains(line, "resyncing") {
				refused.Store(true)
			}
			t.Log(line)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	waitFor(t, 10*time.Second, "resync catch-up", func() bool {
		st := f.Stats()
		return st.Bootstrapped && st.Resyncs > 0 && st.NextSeq == m.WALStats().NextSeq
	})
	if !refused.Load() {
		t.Fatal("the follower resynced, but not for a refused round")
	}
	if st := f.Stats(); st.Resyncs != 1 || snapshotGets.Load() != 2 {
		t.Fatalf("%d resyncs from %d snapshot downloads, want 1 from 2", st.Resyncs, snapshotGets.Load())
	}
	if !bytes.Equal(saveBytes(t, f.Matcher()), saveBytes(t, m)) {
		t.Fatal("resynced follower diverges from the primary")
	}
}

// TestFollowerRejectsStaleTerm: a follower that has acknowledged term 5
// refuses a primary still announcing term 1 — the fencing property that
// keeps a revived old primary from feeding stale data.
func TestFollowerRejectsStaleTerm(t *testing.T) {
	d := smallGeo(t)
	_, _, srv := newPrimary(t, d, t.TempDir(), 1, 0)
	mirror := t.TempDir()
	if err := StoreTerm(mirror, 5); err != nil {
		t.Fatal(err)
	}
	f := startFollower(t, srv.URL, mirror, 1)
	waitFor(t, 10*time.Second, "fenced fetch errors", func() bool {
		return f.Stats().FetchErrors >= 2
	})
	if st := f.Stats(); st.Bootstrapped || st.Term != 5 {
		t.Fatalf("fenced follower consumed stale-primary data: %+v", st)
	}
}

// TestMixedVersionsFailLoudly: a follower pointed at a primary of another
// version — one that still serves the per-shard manifest (no format number),
// or the one-log manifest of format 2, whose records hold rows without their
// decisions — reports a named error every round instead of seeing zero
// segments and resyncing forever, or feeding old records to the new decoder;
// and a mirror directory an earlier version wrote is refused at Start, not at
// promotion.
func TestMixedVersionsFailLoudly(t *testing.T) {
	for name, manifest := range map[string]string{
		"per-shard": `{"term":1,"next_seq":3,"shards":1,"snapshots":[{"seq":0,"bytes":1,"crc":0}],"shard_segments":[[]]}`,
		"format 2":  `{"format":2,"term":1,"next_seq":3,"snapshots":[{"seq":0,"bytes":1,"crc":0}],"segments":[{"index":1,"bytes":8,"sealed":false}]}`,
	} {
		old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, manifest)
		}))
		defer old.Close()
		bare := &Follower{cfg: Config{PrimaryURL: old.URL}, client: http.DefaultClient}
		if _, err := bare.fetchManifest(context.Background()); !errors.Is(err, errManifestFormat) {
			t.Fatalf("%s manifest from an old primary: %v, want errManifestFormat", name, err)
		}
		f := startFollower(t, old.URL, t.TempDir(), 1)
		waitFor(t, 10*time.Second, "counted fetch errors", func() bool {
			return f.Stats().FetchErrors >= 2
		})
		if st := f.Stats(); st.Bootstrapped || st.Resyncs != 0 {
			t.Fatalf("follower acted on a %s manifest: %+v", name, st)
		}
	}

	nobody := httptest.NewServer(http.NotFoundHandler())
	defer nobody.Close()
	for name, entry := range map[string]string{
		"per-shard logs":      "shard-0000/seg-0000000000000001.wal",
		"older record format": "log/seg-0000000000000001.wal",
	} {
		mirror := t.TempDir()
		path := filepath.Join(mirror, entry)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("MEMWAL1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Start(Config{PrimaryURL: nobody.URL, Dir: mirror}); !errors.Is(err, multiem.ErrWALLayout) {
			t.Fatalf("Start on a mirror with %s: %v, want ErrWALLayout", name, err)
		}
	}
}

// TestAutoPromote: with PromoteAfter set, a follower whose primary stops
// answering self-promotes from the fetch loop and reports the new role.
func TestAutoPromote(t *testing.T) {
	d := smallGeo(t)
	m, _, srv := newPrimary(t, d, t.TempDir(), 2, 0)
	for _, rows := range randomBatches(d, 2, 5, 3) {
		if _, err := m.AddRecords(rows); err != nil {
			t.Fatal(err)
		}
	}
	promoted := make(chan struct{})
	f, err := Start(Config{
		PrimaryURL:    srv.URL,
		Dir:           t.TempDir(),
		Opt:           testOpts(2),
		WAL:           multiem.WALConfig{Fsync: "off"},
		Poll:          10 * time.Millisecond,
		Timeout:       250 * time.Millisecond,
		MaxBackoff:    30 * time.Millisecond,
		PromoteAfter:  300 * time.Millisecond,
		OnAutoPromote: func() { close(promoted) },
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitFor(t, 10*time.Second, "catch-up", func() bool {
		return f.Stats().Bootstrapped && f.Stats().NextSeq == m.WALStats().NextSeq
	})
	want := saveBytes(t, m)
	srv.Close()
	select {
	case <-promoted:
	case <-time.After(15 * time.Second):
		t.Fatal("auto-promotion never fired")
	}
	if !f.Promoted() {
		t.Fatal("auto-promotion did not flip the role")
	}
	pm := f.Matcher()
	defer pm.CloseWAL()
	if !bytes.Equal(saveBytes(t, pm), want) {
		t.Fatal("auto-promoted state lost acked batches")
	}
	if _, err := pm.AddRecords([][]string{{"after failover", "7.5", "-9.25"}}); err != nil {
		t.Fatal(err)
	}
}

// TestPrimaryManifestAndFence covers the wire contract directly: manifest
// CRCs match the files, the live segment read stops at the fence, a read at
// the fence returns an empty 200, and past it a 409.
func TestPrimaryManifestAndFence(t *testing.T) {
	d := smallGeo(t)
	m, p, srv := newPrimary(t, d, t.TempDir(), 1, 0)
	for _, rows := range randomBatches(d, 2, 5, 9) {
		if _, err := m.AddRecords(rows); err != nil {
			t.Fatal(err)
		}
	}
	man, err := p.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if man.Term != 1 || man.Format != ManifestFormat || len(man.Snapshots) == 0 {
		t.Fatalf("manifest: %+v", man)
	}
	if man.NextSeq != m.WALStats().NextSeq {
		t.Fatalf("manifest NextSeq %d, want %d", man.NextSeq, m.WALStats().NextSeq)
	}
	snap := man.Snapshots[len(man.Snapshots)-1]
	resp, err := http.Get(fmt.Sprintf("%s/repl/snapshot/%d", srv.URL, snap.Seq))
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 0, snap.Bytes)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		raw = append(raw, buf[:n]...)
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	if int64(len(raw)) != snap.Bytes || wal.CRC(raw) != snap.CRC {
		t.Fatalf("snapshot body (%d bytes) does not match manifest entry %+v", len(raw), snap)
	}

	live := man.Segments[len(man.Segments)-1]
	resp, err = http.Get(fmt.Sprintf("%s/repl/segment/%d?off=%d", srv.URL, live.Index, live.Bytes))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.ContentLength != 0 {
		t.Fatalf("read at fence: status %d length %d, want empty 200", resp.StatusCode, resp.ContentLength)
	}
	if got := resp.Header.Get("X-Repl-Fence"); got != fmt.Sprint(live.Bytes) {
		t.Fatalf("fence header %q, want %d", got, live.Bytes)
	}
	resp, err = http.Get(fmt.Sprintf("%s/repl/segment/%d?off=%d", srv.URL, live.Index, live.Bytes+1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("read past fence: status %d, want 409", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/repl/segment/999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing segment: status %d, want 404", resp.StatusCode)
	}
}

// TestFollowerSnapshotRetention: a follower prunes its mirrored snapshots by
// the primary's rule, WALConfig.SnapshotKeep (default 2): after fetching four
// checkpoints it keeps the newest SnapshotKeep of them.
func TestFollowerSnapshotRetention(t *testing.T) {
	d := smallGeo(t)
	for _, c := range []struct{ keep, want int }{{0, 2}, {3, 3}} {
		t.Run(fmt.Sprintf("keep=%d", c.keep), func(t *testing.T) {
			m, _, srv := newPrimary(t, d, t.TempDir(), 1, 0)
			dir := t.TempDir()
			f := &Follower{
				cfg: Config{
					PrimaryURL: srv.URL,
					Dir:        dir,
					WAL:        multiem.WALConfig{SnapshotKeep: c.keep},
					Timeout:    2 * time.Second,
					Logf:       t.Logf,
				},
				client: &http.Client{},
			}
			var fetched []uint64
			for _, rows := range randomBatches(d, 4, 3, 21) {
				if _, err := m.AddRecords(rows); err != nil {
					t.Fatal(err)
				}
				if _, err := m.Snapshot(); err != nil {
					t.Fatal(err)
				}
				man, err := f.fetchManifest(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				newest := man.Snapshots[len(man.Snapshots)-1]
				if err := f.fetchSnapshot(newest); err != nil {
					t.Fatal(err)
				}
				fetched = append(fetched, newest.Seq)
			}
			got, err := multiem.ListSnapshots(dir)
			if err != nil {
				t.Fatal(err)
			}
			if want := fetched[len(fetched)-c.want:]; !slices.Equal(got, want) {
				t.Fatalf("the mirror keeps snapshots %v of the fetched %v; want %v", got, fetched, want)
			}
		})
	}
}
