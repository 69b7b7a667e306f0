package multiem

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/binio"
	"repro/internal/hnsw"
	"repro/internal/vector"
)

// Matcher binary format (little-endian), version 4:
//
//	magic     [8]byte  "MEMMATC\n"
//	version   uint32
//	dim       int32
//	nextID    int64
//	nShards   int32
//	schema    count + length-prefixed strings
//	selected  count (-1 = all attributes) + int32 positions
//	per shard:
//	  section bytes  int64 (length of the section that follows)
//	  entIDs      count + count × int64
//	  entVecs     count × dim × float32, the shard's embedding arena as one block
//	  tuples      count × { nMembers int32; members []int32 (local rows); maxJoinDist f32 }
//	  centroids   count × dim × float32, tuple l's current centroid at row l
//	  compactions int64
//	  index       embedded hnsw.Index (its own versioned format)
//
// The centroids block is redundant with the index — row l repeats the vector
// of the last index node carrying id l — and is kept because the format
// predates the index owning the centroids: Save gathers it from the index
// rows, LoadMatcher checks it against them and keeps nothing of it.
//
// Version 2 held one global section set; version 3 introduced one
// self-contained section per shard, matching the sharded in-memory layout,
// so a loaded matcher reconstructs the exact shard topology (and its
// per-shard RNG streams) it was saved with. Version 4 prefixes each section
// with its byte length, which is what lets Save serialize the shards into
// independent buffers concurrently and LoadMatcher decode them concurrently
// after a sequential read — the written bytes are identical for every
// worker count (sections are always emitted in shard order).

var matcherMagic = [8]byte{'M', 'E', 'M', 'M', 'A', 'T', 'C', '\n'}

const matcherFormatVersion = 4

// ErrFormatVersion is wrapped by LoadMatcher when the file's format version
// is not the one this build writes; callers distinguish "old matcher file,
// rebuild it" from corruption with errors.Is.
var ErrFormatVersion = errors.New("multiem: unsupported matcher format version")

// ErrCorruptState is wrapped by LoadMatcher for input that is not a
// well-formed matcher file of the current version: truncated, a count or
// reference out of range, or sections that contradict each other (a tuple
// the index never mentions, a centroid that differs from its index node).
// Such a state could not be served, so it is refused whole.
var ErrCorruptState = errors.New("multiem: corrupt matcher state")

// Corruption bounds for the header, mirroring the hnsw serializer: a bad
// count in a tiny file must fail with an error, not a multi-gigabyte
// allocation. Counts inside a shard section are bounded by the section's own
// length instead (readSection).
const (
	maxSaneSchema = 1 << 20
	maxSaneStr    = 1 << 20
	maxSaneDim    = 1 << 20
	maxSaneShards = 1 << 12
)

// Save writes the matcher's complete state — per-shard embeddings, tuples,
// and centroid indexes — so LoadMatcher can serve queries without re-running
// the pipeline. The pipeline Result is not persisted. Save pins the current
// epoch view and serializes from it without taking the ingest lock: the
// written snapshot is consistent across shards (a view is immutable and
// batch-atomic by construction) and neither ingest nor other reads wait on
// the serialization, however large the state.
//
// The shard sections are serialized into independent buffers concurrently
// (one worker per shard) and then written out in shard order, so the bytes
// are identical for every worker count and large states save at
// memory-bandwidth speed instead of one shard at a time. The WAL snapshotter
// writes its checkpoints through the same path.
func (m *Matcher) Save(w io.Writer) error {
	return m.saveView(m.state.Load(), w)
}

// saveView serializes one pinned epoch view. It touches no writer state, so
// it runs concurrently with ingest; the view's frozen nextID keeps the
// header consistent with the shard sections.
func (m *Matcher) saveView(v *matcherView, w io.Writer) error {
	secs := make([]bytes.Buffer, len(v.shards))
	errs := make([]error, len(v.shards))
	parallelFor(len(v.shards), func(s int) {
		errs[s] = v.shards[s].writeSection(&secs[s])
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(matcherMagic[:]); err != nil {
		return fmt.Errorf("multiem: save matcher: %w", err)
	}
	binio.WriteU32(bw, matcherFormatVersion)
	binio.WriteI32(bw, int32(m.dim))
	binio.WriteI64(bw, int64(v.nextID))
	binio.WriteI32(bw, int32(len(v.shards)))
	binio.WriteI32(bw, int32(len(m.schema)))
	for _, s := range m.schema {
		binio.WriteString(bw, s)
	}
	if m.selected == nil {
		binio.WriteI32(bw, -1)
	} else {
		binio.WriteI32(bw, int32(len(m.selected)))
		for _, j := range m.selected {
			binio.WriteI32(bw, int32(j))
		}
	}
	for s := range secs {
		binio.WriteI64(bw, int64(secs[s].Len()))
		if _, err := bw.Write(secs[s].Bytes()); err != nil {
			return fmt.Errorf("multiem: save matcher: %w", err)
		}
	}
	return bw.Flush()
}

// writeSection serializes one shard's section — entities, tuples, centroids,
// and the embedded index — into w. The centroids block is gathered from the
// index: each tuple's current node, in local-tuple order.
func (v *shardView) writeSection(w *bytes.Buffer) error {
	// One allocation of the section's exact size: grown by doubling, a
	// section of tens of megabytes spends a third of Save clearing and
	// re-copying what it has already written.
	w.Grow(v.sectionSize())
	bw := bufio.NewWriter(w)
	binio.WriteI32(bw, int32(len(v.entIDs)))
	for _, id := range v.entIDs {
		binio.WriteI64(bw, int64(id))
	}
	binio.WriteF32s(bw, v.entVecs.Raw())
	binio.WriteI32(bw, int32(v.tuples.len()))
	v.tuples.each(func(_ int, ts *tupleState) {
		binio.WriteI32(bw, int32(len(ts.members)))
		for _, p := range ts.members {
			binio.WriteI32(bw, int32(p))
		}
		binio.WriteF32(bw, ts.maxJoinDist)
	})
	for local := 0; local < v.tuples.len(); local++ {
		binio.WriteF32s(bw, v.centroidAt(local))
	}
	binio.WriteI64(bw, v.compactions)
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("multiem: save matcher: %w", err)
	}
	// The index writes through its own bufio layer onto w; flushing ours
	// first keeps the bytes in order.
	return v.index.Save(w)
}

// sectionSize is the number of bytes writeSection produces for this view.
func (v *shardView) sectionSize() int {
	n := 4 + 8*len(v.entIDs) + 4*len(v.entVecs.Raw()) // entities
	n += 4                                            // tuple count
	v.tuples.each(func(_ int, ts *tupleState) {
		n += 4 + 4*len(ts.members) + 4
	})
	n += 4 * v.tuples.len() * v.index.Dim() // centroids
	n += 8                                  // compactions
	return n + v.index.SaveSize()
}

// readArena reads rows vectors into the store in bounded chunks, so the
// allocation never outruns the bytes actually present: a corrupt count in a
// short file fails with an error at the first missing byte instead of an
// up-front arena allocation sized by the header's promise.
func readArena(rd *binio.Reader, s *vector.Store, rows int) error {
	const rowChunk = 4096
	dim := s.Dim()
	base := s.Len()
	for read := 0; read < rows; {
		n := rows - read
		if n > rowChunk {
			n = rowChunk
		}
		s.Grow(n)
		rd.F32s(s.Raw()[(base+read)*dim : (base+read+n)*dim])
		if err := rd.Err(); err != nil {
			return err
		}
		read += n
	}
	return nil
}

// LoadMatcher reads a matcher written by Save. opt supplies the runtime
// pieces that are not persisted — the encoder and thresholds — and must use
// an encoder with the same dimensionality (and, for meaningful results, the
// same encoding) as at save time. The shard count comes from the file, not
// from opt.Shards: global tuple IDs encode the shard layout, so the layout is
// part of the persistent state.
func LoadMatcher(r io.Reader, opt Options) (*Matcher, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	// The embedded indexes are read through the same bufio.Reader, so its
	// read-ahead never loses bytes between sections.
	br := bufio.NewReader(r)

	var mg [8]byte
	if _, err := io.ReadFull(br, mg[:]); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptState, err)
	}
	if mg != matcherMagic {
		return nil, fmt.Errorf("%w: bad magic %q (not a matcher file)", ErrCorruptState, mg[:])
	}
	rd := binio.NewReader(br)
	version := rd.U32()
	if rd.Err() == nil && version != matcherFormatVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d", ErrFormatVersion, version, matcherFormatVersion)
	}

	m := &Matcher{opt: opt, dist: opt.MergeMetric.Func()}
	m.dim = rd.I32()
	m.nextID = int(rd.I64())
	nShards := rd.I32()
	if rd.Err() != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptState, rd.Err())
	}
	if m.dim <= 0 || m.dim > maxSaneDim {
		return nil, fmt.Errorf("%w: dim %d", ErrCorruptState, m.dim)
	}
	if got := opt.Encoder.Dim(); got != m.dim {
		return nil, fmt.Errorf("multiem: load matcher: encoder dim %d does not match saved dim %d", got, m.dim)
	}
	if nShards <= 0 || nShards > maxSaneShards {
		return nil, fmt.Errorf("%w: shard count %d", ErrCorruptState, nShards)
	}

	nSchema := rd.I32()
	if rd.Err() == nil && (nSchema < 0 || nSchema > maxSaneSchema) {
		return nil, fmt.Errorf("%w: schema size %d", ErrCorruptState, nSchema)
	}
	// Grown as the strings arrive, so the count alone allocates nothing.
	m.schema = []string{}
	for i := 0; i < nSchema && rd.Err() == nil; i++ {
		m.schema = append(m.schema, rd.Str(maxSaneStr))
	}
	nSel := rd.I32()
	if rd.Err() != nil {
		return nil, fmt.Errorf("%w: schema: %w", ErrCorruptState, rd.Err())
	}
	// -1 is the only negative Save writes; any other would load as "all
	// attributes" and save back as a different file.
	if nSel < -1 || nSel > nSchema {
		return nil, fmt.Errorf("%w: %d selected attributes for schema of %d", ErrCorruptState, nSel, nSchema)
	}
	if nSel >= 0 {
		m.selected = make([]int, nSel)
		for i := range m.selected {
			j := rd.I32()
			if rd.Err() == nil && (j < 0 || j >= nSchema) {
				return nil, fmt.Errorf("%w: selected attribute %d out of schema range", ErrCorruptState, j)
			}
			m.selected[i] = j
		}
	}

	m.newShards(nShards)

	// Sections are read off the stream sequentially (their lengths are the
	// only way to find the boundaries) and decoded concurrently: the decode —
	// arena rebuilds, member validation, HNSW graph reconstruction — is the
	// expensive part, and each shard's section is self-contained.
	secs := make([][]byte, nShards)
	for s := range secs {
		secLen := rd.I64()
		if rd.Err() != nil {
			return nil, fmt.Errorf("%w: shard %d section: %w", ErrCorruptState, s, rd.Err())
		}
		if secLen < 0 {
			return nil, fmt.Errorf("%w: shard %d: section length %d", ErrCorruptState, s, secLen)
		}
		// Read via a growing buffer, not one make([]byte, secLen): a corrupt
		// length in a short file must fail at the first missing byte, not
		// allocate by the header's promise.
		var buf bytes.Buffer
		if _, err := io.CopyN(&buf, br, secLen); err != nil {
			return nil, fmt.Errorf("%w: shard %d section: %w", ErrCorruptState, s, err)
		}
		secs[s] = buf.Bytes()
	}

	maxEntIDs := make([]int, nShards)
	errs := make([]error, nShards)
	parallelFor(nShards, func(s int) {
		maxEntIDs[s], errs[s] = m.shards[s].readSection(secs[s], m.dim)
		if errs[s] != nil {
			errs[s] = fmt.Errorf("%w: shard %d: %w", ErrCorruptState, s, errs[s])
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	maxEntID := -1
	for _, id := range maxEntIDs {
		if id > maxEntID {
			maxEntID = id
		}
	}
	// A nextID at or below an existing ID would hand out colliding IDs on
	// the first AddRecords; reject it like every other corrupt field.
	if m.nextID <= maxEntID {
		return nil, fmt.Errorf("%w: nextID %d not above max entity ID %d", ErrCorruptState, m.nextID, maxEntID)
	}
	m.publishAll(0)
	return m, nil
}

// readSection decodes one shard's section bytes into sh, returning the
// largest entity ID seen (-1 when the shard is empty). Every count is checked
// against the bytes the section still holds before anything is sized by it,
// and the centroids block is never materialised: it is compared, row by row,
// against the index nodes it repeats.
func (sh *shard) readSection(sec []byte, dim int) (maxEntID int, err error) {
	src := bytes.NewReader(sec)
	br := bufio.NewReader(src)
	rd := binio.NewReader(br)
	left := func() int { return src.Len() + br.Buffered() }
	maxEntID = -1

	nEnts := rd.I32()
	if rd.Err() == nil && (nEnts < 0 || nEnts > left()/(8+4*dim)) {
		return -1, fmt.Errorf("entity count %d exceeds the section", nEnts)
	}
	sh.entIDs = make([]int, nEnts)
	for i := 0; i < nEnts; i++ {
		sh.entIDs[i] = int(rd.I64())
		if sh.entIDs[i] > maxEntID {
			maxEntID = sh.entIDs[i]
		}
	}
	if err := readArena(rd, sh.entVecs, nEnts); err != nil {
		return -1, fmt.Errorf("entities: %w", err)
	}

	// A tuple costs its member count, its join distance and a centroid row.
	nTuples := rd.I32()
	if rd.Err() == nil && (nTuples < 0 || nTuples > left()/(8+4*dim)) {
		return -1, fmt.Errorf("tuple count %d exceeds the section", nTuples)
	}
	for i := 0; i < nTuples; i++ {
		nMembers := rd.I32()
		if rd.Err() == nil && (nMembers < 0 || nMembers > nEnts || nMembers > left()/4) {
			return -1, fmt.Errorf("tuple %d has corrupt member count %d", i, nMembers)
		}
		members := make([]int, nMembers)
		for j := range members {
			p := rd.I32()
			if rd.Err() == nil && (p < 0 || p >= nEnts) {
				return -1, fmt.Errorf("tuple %d references out-of-range entity %d", i, p)
			}
			members[j] = p
		}
		sh.tuples.append(tupleState{
			members:     members,
			maxJoinDist: rd.F32(),
			minEntID:    minMemberID(members, sh.entIDs),
			node:        -1, // until the index names one
		})
	}
	if rd.Err() != nil {
		return -1, rd.Err()
	}
	// Step over the centroids block; it is checked once the index it
	// repeats has been read.
	centroids := sec[len(sec)-left():]
	if _, err := br.Discard(nTuples * dim * 4); err != nil {
		return -1, fmt.Errorf("centroids: %w", err)
	}
	sh.compactions = rd.I64()
	if rd.Err() != nil {
		return -1, rd.Err()
	}

	// hnsw.Load reuses an already-buffered reader, so the index consumes
	// exactly its own bytes out of br and the trailing-byte check below sees
	// the true remainder.
	ix, err := hnsw.Load(br)
	if err != nil {
		return -1, err
	}
	if ix.Dim() != dim {
		return -1, fmt.Errorf("index dim %d does not match matcher dim %d", ix.Dim(), dim)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return -1, fmt.Errorf("section has trailing bytes")
	}
	// Index ids are local tuple indexes, and a tuple's current node is the
	// last one carrying its id (Add order is history order). A tuple without
	// a node could never be found or re-ranked; a centroid row that differs
	// from its node is a file whose two copies disagree, and serving either
	// would be a guess.
	for node, id := range ix.IDs() {
		if id < 0 || id >= nTuples {
			return -1, fmt.Errorf("index references tuple %d, have %d tuples", id, nTuples)
		}
		sh.tuples.mut(id).node = int32(node)
	}
	for l := 0; l < nTuples; l++ {
		node := int(sh.tuples.at(l).node)
		if node < 0 {
			return -1, fmt.Errorf("tuple %d has no index entry", l)
		}
		row := centroids[l*dim*4:]
		for j, f := range ix.Vector(node) {
			if math.Float32bits(f) != binary.LittleEndian.Uint32(row[4*j:]) {
				return -1, fmt.Errorf("tuple %d: centroid differs from index node %d at component %d", l, node, j)
			}
		}
	}
	sh.index = ix
	return maxEntID, nil
}
