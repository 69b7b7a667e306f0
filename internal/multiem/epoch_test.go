package multiem

import (
	"bytes"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/embed"
	"repro/internal/hnsw"
)

// largeHammerBase caches the serialized prepopulated base state for
// TestEpochHammerLargeChunkedState, so -cpu list reruns within one test
// binary rebuild it from bytes instead of re-ingesting >30k rows.
var largeHammerBase struct {
	sync.Mutex
	raw []byte
}

// epochRows builds one batch of n mutually distant records (every token is
// an id-derived base-36 blob, so rows rarely absorb or chain — they spread
// across shards as fresh singletons). Whatever a row's fate, it appends
// exactly one entity to exactly one shard, so a committed batch grows the
// entity total by exactly n — the invariant the atomicity hammers below
// assert at every observed epoch.
func epochRows(batch, n int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		id := uint64(batch*n + i)
		tok := func(k uint64) string {
			return "w" + strconv.FormatUint(id*2654435761+k*40503, 36)
		}
		rows[i] = []string{
			tok(1) + " " + tok(2) + " " + tok(3),
			tok(4),
			tok(5),
		}
	}
	return rows
}

// TestEpochBatchAtomicity is the all-or-nothing property: while batches of
// exactly K rows commit concurrently (spread across all 4 shards by the
// routing hash), every read must see a whole number of batches. The epoch
// parity check is exact: a pinned view at epoch e0+b must hold precisely
// base+b*K entities summed across its shards — a batch counted on some
// shards but not others can never satisfy it for any b. Before the epoch
// views, a batch became visible shard by shard and this hammer would catch
// readers mid-batch. CI runs this package under -race -cpu=1,4.
func TestEpochBatchAtomicity(t *testing.T) {
	m, _ := shardedGeo(t, 4)
	const batchRows = 8
	const batches = 30

	base := m.Stats()
	e0 := m.Epoch()

	stop := make(chan struct{})
	var reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastEpoch uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					// Epoch parity, white-box: a pinned view's entity total
					// must equal exactly its epoch's worth of whole batches.
					v := m.state.Load()
					ents := 0
					for _, sv := range v.shards {
						ents += len(sv.entIDs)
					}
					if want := base.Entities + int(v.epoch-e0)*batchRows; ents != want {
						t.Errorf("reader %d: epoch %d view holds %d entities, want %d — partial batch visible", r, v.epoch-e0, ents, want)
						return
					}
					if e := v.epoch; e < lastEpoch {
						t.Errorf("reader %d: epoch went backwards: %d after %d", r, e, lastEpoch)
						return
					} else {
						lastEpoch = e
					}
				case 1:
					// Public API: one Stats snapshot must also be whole-batch,
					// and exactly the returned epoch's worth of batches.
					s, per, e := m.StatsWithShards()
					if want := base.Entities + int(e-e0)*batchRows; s.Entities != want {
						t.Errorf("reader %d: StatsWithShards at epoch %d reports %d entities, want %d", r, e-e0, s.Entities, want)
						return
					}
					sum := 0
					for _, p := range per {
						sum += p.Entities
					}
					if sum != s.Entities {
						t.Errorf("reader %d: per-shard sum %d != total %d", r, sum, s.Entities)
						return
					}
				default:
					m.Tuples()
				}
				reads.Add(1)
			}
		}(r)
	}

	for b := 0; b < batches; b++ {
		if _, err := m.AddRecords(epochRows(b, batchRows)); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	close(stop)
	wg.Wait()

	if got, want := m.Epoch(), e0+batches; got != want {
		t.Fatalf("epoch advanced to %d after %d batches, want %d", got, batches, want)
	}
	s := m.Stats()
	if s.Entities != base.Entities+batches*batchRows {
		t.Fatalf("entities %d, want %d", s.Entities, base.Entities+batches*batchRows)
	}
	if reads.Load() == 0 {
		t.Fatal("readers never ran; the hammer is vacuous")
	}
}

// TestFollowerRoundAtomicity is the same property for a follower: while it
// replays the primary's log in rounds of one to three batches, the shard
// streams mutating state that published views share, every pinned view holds
// exactly its epoch's worth of whole batches — a round is seen all or not at
// all — and the follower ends byte-identical to the primary.
func TestFollowerRoundAtomicity(t *testing.T) {
	const shards, batchRows, batches = 4, 8, 30
	load := baseLoader(t, smallGeo(t), shards)
	dir := t.TempDir()
	primary, err := RecoverMatcher(WALConfig{Dir: dir, Fsync: "off"}, durOpts(shards), load)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < batches; b++ {
		if _, err := primary.AddRecords(epochRows(b, batchRows)); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	records := scanMirror(t, dir)
	m, err := load()
	if err != nil {
		t.Fatal(err)
	}
	base, r := m.Stats().Entities, NewReplicator(m, 0)

	stop := make(chan struct{})
	var reads atomic.Int64
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, _, e := m.StatsWithShards()
				if want := base + int(e)*batchRows; s.Entities != want {
					t.Errorf("epoch %d reports %d entities, want %d — part of a round visible", e, s.Entities, want)
					return
				}
				m.Tuples()
				reads.Add(1)
			}
		}()
	}
	for b, n := 0, 1; b < batches; b, n = b+n, n%3+1 {
		if err := r.Apply(scanOf(records[b:min(b+n, batches)]...)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("readers never ran; the hammer is vacuous")
	}
	if !bytes.Equal(saveBytes(t, m), saveBytes(t, primary)) {
		t.Fatal("the follower diverges from the primary")
	}
}

// TestEpochHammerLargeChunkedState is the chunked-view hammer at scale: a
// single-shard matcher prepopulated to >= 32k live tuples, with 128-row tuple
// chunks, so that the tuple table and the HNSW link arena each span hundreds
// of chunks, takes continuous checkpoints, ingest batches, and readers
// concurrently. With chunk-level COW the writer dirties a bounded set of
// chunks per batch while snapshots and readers walk spines frozen at their
// epoch. The hammer asserts the same whole-batch visibility as the small
// hammers plus cursor-walk consistency: a TupleCursor must observe exactly
// its pinned epoch's tuple count however many batches commit during the
// walk. CI runs this under -race -cpu=1,4; -short skips it.
func TestEpochHammerLargeChunkedState(t *testing.T) {
	if testing.Short() {
		t.Skip("32k-tuple hammer skipped in -short mode")
	}
	const liveTarget = 32_000
	const prepopBatch = 8192
	const batchRows = 64

	d := smallGeo(t)
	opt := geoOpts()
	opt.Shards = 1
	opt.tupleChunkOverride = 8 // 1<<7 = 128-row tuple chunks
	// Cheap substrate: the hammer stresses commit/snapshot interleaving, not
	// embedding or search quality, and >30k HNSW inserts under -race are the
	// dominant cost. Dim 64 keeps random rows distinct enough to land as
	// fresh tuples — at dim 32 hash-embedding collisions absorb most rows
	// into existing tuples and the prepopulation loop never reaches its
	// target.
	opt.Encoder = embed.NewHashEncoder(embed.WithDim(64))
	opt.HNSW = hnsw.Config{M: 6, EfConstruction: 24, EfSearch: 24, Seed: 1}
	// A link-arena chunk is 2048 slots and a node's region takes 1+2M = 13
	// of them at layer 0 (more above), so a chunk holds at most
	// 2048/13 = 157 nodes, and an index of >= 200*157 = 31 400 entries spans
	// >= 200 chunks.
	const minTupleChunks, minIndexSize = 200, 200 * (2048 / (1 + 2*6))

	m, err := RecoverMatcher(WALConfig{Dir: t.TempDir(), Fsync: "off"}, opt, func() (*Matcher, error) {
		// Prepopulate as part of the base state (large batches keep it
		// fast); the WAL then journals only the hammer's own batches. The
		// serialized base is cached at package level so -cpu reruns of the
		// hammer in one test binary pay the prepopulation once and reload.
		largeHammerBase.Lock()
		defer largeHammerBase.Unlock()
		if largeHammerBase.raw != nil {
			return LoadMatcher(bytes.NewReader(largeHammerBase.raw), opt)
		}
		base, err := BuildMatcher(d, opt)
		if err != nil {
			return nil, err
		}
		for b := 0; base.Stats().Tuples < liveTarget; b++ {
			if _, err := base.AddRecords(epochRows(b, prepopBatch)); err != nil {
				return nil, err
			}
		}
		var buf bytes.Buffer
		if err := base.Save(&buf); err != nil {
			return nil, err
		}
		largeHammerBase.raw = buf.Bytes()
		return base, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.CloseWAL()

	base := m.Stats()
	if base.Tuples < liveTarget {
		t.Fatalf("prepopulation stopped at %d tuples, want >= %d", base.Tuples, liveTarget)
	}
	sv := m.state.Load().shards[0]
	if n := len(sv.tuples.chunks); n < minTupleChunks {
		t.Fatalf("tuple table spans %d chunks, want >= %d", n, minTupleChunks)
	}
	if n := sv.index.Len(); n < minIndexSize {
		t.Fatalf("index holds %d entries, want >= %d so its link arena spans >= 200 chunks", n, minIndexSize)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Snapshotter: checkpoint the ~32k-tuple state continuously. Each
	// checkpoint serializes from a pinned view off the ingest lock, so the
	// batches below must keep committing at O(batch) cost underneath it.
	var snaps atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := m.Snapshot(); err != nil {
				t.Errorf("Snapshot: %v", err)
				return
			}
			snaps.Add(1)
		}
	}()

	// Readers: whole-batch entity parity via Stats, and full cursor walks
	// pinned to one epoch each — the walk's tuple count must equal the
	// pinned epoch's exactly, no matter how many batches commit meanwhile.
	probe := epochRows(0, 1)[0]
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					if de := m.Stats().Entities - base.Entities; de%batchRows != 0 {
						t.Errorf("reader %d: partial batch visible: %d extra entities", r, de)
						return
					}
				case 1:
					c := m.TupleCursor(1)
					walked := 0
					for c.Next() {
						walked++
					}
					s, _, epoch := m.StatsWithShards()
					if epoch == c.Epoch() && walked != s.Tuples {
						t.Errorf("reader %d: cursor at epoch %d walked %d tuples, Stats reports %d", r, epoch, walked, s.Tuples)
						return
					}
				default:
					if _, err := m.Match(probe, 2); err != nil {
						t.Errorf("reader %d: Match: %v", r, err)
						return
					}
				}
			}
		}(r)
	}

	const batches = 15
	for b := 0; b < batches; b++ {
		if _, err := m.AddRecords(epochRows(2_000_000+b, batchRows)); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	// Let at least one checkpoint cover the fully-ingested state. Generous:
	// serializing a >30k-tuple state under -race on a loaded single-core
	// box can take tens of seconds per checkpoint.
	deadline := time.Now().Add(2 * time.Minute)
	for snaps.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if snaps.Load() == 0 {
		t.Fatal("no checkpoint completed; the hammer is vacuous")
	}
	if got, want := m.Stats().Entities, base.Entities+batches*batchRows; got != want {
		t.Fatalf("entities %d after ingest under snapshots, want %d", got, want)
	}
}

// TestEpochReadsDuringSnapshot races Match, Stats, and Tuples against
// continuous checkpoints and concurrent ingest on a durable matcher: reads
// must stay lock-free (they pin immutable views, so a checkpoint serializing
// gigabytes could never block them) and keep observing whole batches. This
// is the regression hammer for the off-lock Snapshot path under -race.
func TestEpochReadsDuringSnapshot(t *testing.T) {
	d := smallGeo(t)
	m, err := RecoverMatcher(WALConfig{Dir: t.TempDir(), Fsync: "off"}, durOpts(4), func() (*Matcher, error) {
		return BuildMatcher(d, durOpts(4))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.CloseWAL()

	const batchRows = 6
	base := m.Stats()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Snapshotter: checkpoint continuously while ingest and reads run.
	var snaps atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := m.Snapshot(); err != nil {
				t.Errorf("Snapshot: %v", err)
				return
			}
			snaps.Add(1)
		}
	}()

	// Readers: whole-batch visibility and live Match results mid-checkpoint.
	probe := epochRows(0, 1)[0]
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if de := m.Stats().Entities - base.Entities; de%batchRows != 0 {
					t.Errorf("reader %d: partial batch visible during snapshot: %d extra entities", r, de)
					return
				}
				if i%4 == 0 {
					if _, err := m.Match(probe, 2); err != nil {
						t.Errorf("reader %d: Match: %v", r, err)
						return
					}
				} else if i%4 == 2 {
					m.Tuples()
				}
			}
		}(r)
	}

	for b := 1; b <= 20; b++ {
		if _, err := m.AddRecords(epochRows(b, batchRows)); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	// Let at least one checkpoint overlap the post-ingest state.
	deadline := time.Now().Add(5 * time.Second)
	for snaps.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if snaps.Load() == 0 {
		t.Fatal("no checkpoint completed; the hammer is vacuous")
	}
	if got, want := m.Stats().Entities, base.Entities+20*batchRows; got != want {
		t.Fatalf("entities %d after ingest under snapshots, want %d", got, want)
	}
}
