package multiem

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/binio"
	"repro/internal/hnsw"
	"repro/internal/par"
	"repro/internal/vector"
)

// Matcher binary format (little-endian), version 5:
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
//	  compactions int64
//	  index       embedded hnsw.Index (its own versioned format)
//
// A tuple's centroid is the vector of the last index node carrying its id;
// the file holds it there and nowhere else. Each shard's section is
// self-contained and length-prefixed, so a loader finds every section without
// decoding the one before it, and a loaded matcher has the exact shard
// topology (and per-shard RNG streams) it was saved with. Version 4, the one
// older version LoadMatcher reads, also carried a dense centroids block
// (tuple count × dim × float32, between tuples and compactions) repeating
// those node rows — a quarter of a file; the loader steps over it.

var matcherMagic = [8]byte{'M', 'E', 'M', 'M', 'A', 'T', 'C', '\n'}

const (
	matcherFormatVersion = 5
	// matcherFormatV4 is the one older version LoadMatcher still takes.
	matcherFormatV4 = 4
)

// ErrFormatVersion is wrapped by LoadMatcher when the file's format version
// is not one this build reads (5, and 4); callers distinguish "old matcher
// file, rebuild it" from corruption with errors.Is.
var ErrFormatVersion = errors.New("multiem: unsupported matcher format version")

// ErrCorruptState is wrapped by LoadMatcher for input that is not a
// well-formed matcher file of a version it reads: truncated, a count or
// reference out of range, or sections that contradict each other (a tuple
// the index never mentions). Such a state could not be served, so it is
// refused whole.
var ErrCorruptState = errors.New("multiem: corrupt matcher state")

// Header bounds the bytes present cannot give (binio.Reader.Count gives the
// rest): row sizes far from overflow, and empty shards that stay cheap.
const (
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
// The state streams to w: each section's length is computed first
// (sectionSize), then the section is written straight through, its arenas as
// one Write each of their own memory, so Save's allocation does not grow with
// the state. The WAL snapshotter writes its checkpoints through the same path.
func (m *Matcher) Save(w io.Writer) error {
	return m.saveView(m.state.Load(), w)
}

// saveView serializes one pinned epoch view. It touches no writer state, so
// it runs concurrently with ingest; the view's frozen nextID keeps the
// header consistent with the shard sections.
func (m *Matcher) saveView(v *matcherView, w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.Write(matcherMagic[:])
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
	for _, sv := range v.shards {
		binio.WriteI64(bw, int64(sv.sectionSize()))
		if err := sv.writeSection(bw); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("multiem: save matcher: %w", err)
	}
	return nil
}

// writeSection streams one shard's section — entities, tuples, and the
// embedded index — to bw; sectionSize is its length.
func (v *shardView) writeSection(bw *bufio.Writer) error {
	binio.WriteI32(bw, int32(len(v.entIDs)))
	binio.WriteInts(bw, v.entIDs)
	binio.WriteF32s(bw, v.entVecs.Raw())
	binio.WriteI32(bw, int32(v.tuples.len()))
	v.tuples.each(func(_ int, ts *tupleState) {
		binio.WriteI32(bw, int32(len(ts.members)))
		for _, p := range ts.members {
			binio.WriteI32(bw, int32(p))
		}
		binio.WriteF32(bw, ts.maxJoinDist)
	})
	binio.WriteI64(bw, v.compactions)
	// The index writes through bw as well (bufio.NewWriter returns a
	// bufio.Writer it is handed); its flush reports any error from above.
	if err := v.index.Save(bw); err != nil {
		return fmt.Errorf("multiem: save matcher: %w", err)
	}
	return nil
}

// sectionSize is the number of bytes writeSection produces for this view.
func (v *shardView) sectionSize() int {
	n := 4 + 8*len(v.entIDs) + 4*len(v.entVecs.Raw()) // entities
	n += 4                                            // tuple count
	v.tuples.each(func(_ int, ts *tupleState) {
		n += 4 + 4*len(ts.members) + 4
	})
	n += 8 // compactions
	return n + v.index.SaveSize()
}

// LoadMatcher reads a matcher written by Save. opt supplies the runtime
// pieces that are not persisted — the encoder and thresholds — and must use
// an encoder with the same dimensionality (and, for meaningful results, the
// same encoding) as at save time. The shard count comes from the file, not
// from opt.Shards: global tuple IDs encode the shard layout, so the layout is
// part of the persistent state.
//
// r is read to its end, once, into a buffer sized by what the source says it
// holds (binio.ReadAll), and everything is decoded from that buffer; bytes
// past the last section are ignored. A version-4 file loads to the state its
// version-5 file would.
func LoadMatcher(r io.Reader, opt Options) (*Matcher, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	began := time.Now()
	raw, err := binio.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptState, err)
	}
	rd := binio.NewReader(raw)
	if mg := rd.Next(len(matcherMagic)); string(mg) != string(matcherMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q (not a matcher file)", ErrCorruptState, mg)
	}
	version := rd.U32()
	if rd.Err() == nil && version != matcherFormatVersion && version != matcherFormatV4 {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d and %d", ErrFormatVersion, version, matcherFormatVersion, matcherFormatV4)
	}

	m := &Matcher{opt: opt}
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
	// A shard is at least its section length.
	if nShards <= 0 || nShards > maxSaneShards || nShards > rd.Len()/8 {
		return nil, fmt.Errorf("%w: shard count %d", ErrCorruptState, nShards)
	}

	m.schema = make([]string, rd.Count(4))
	for i := range m.schema {
		m.schema[i] = rd.Str()
	}
	nSel := rd.I32()
	if rd.Err() != nil {
		return nil, fmt.Errorf("%w: schema: %w", ErrCorruptState, rd.Err())
	}
	// -1 is the only negative Save writes; any other would load as "all
	// attributes" and save back as a different file.
	if nSel < -1 || nSel > len(m.schema) {
		return nil, fmt.Errorf("%w: %d selected attributes for schema of %d", ErrCorruptState, nSel, len(m.schema))
	}
	if nSel >= 0 {
		m.selected = make([]int, nSel)
		for i := range m.selected {
			j := rd.I32()
			if rd.Err() == nil && (j < 0 || j >= len(m.schema)) {
				return nil, fmt.Errorf("%w: selected attribute %d out of schema range", ErrCorruptState, j)
			}
			m.selected[i] = j
		}
	}

	// A section is a sub-slice of what was read; its length is the only way
	// to find the next one, and each is self-contained, so once they are
	// found they decode concurrently — arena copies, member validation and
	// HNSW graph reconstruction are the expensive part.
	secs := make([][]byte, nShards)
	for s := range secs {
		secLen := rd.I64()
		if rd.Err() == nil && (secLen < 0 || secLen > int64(rd.Len())) {
			return nil, fmt.Errorf("%w: shard %d: section of %d bytes, %d follow", ErrCorruptState, s, secLen, rd.Len())
		}
		secs[s] = rd.Next(int(secLen))
		if rd.Err() != nil {
			return nil, fmt.Errorf("%w: shard %d section: %w", ErrCorruptState, s, rd.Err())
		}
	}

	m.newShards(nShards)
	maxEntIDs := make([]int, nShards)
	errs := make([]error, nShards)
	par.For(nShards, nShards, func(_, s int) {
		maxEntIDs[s], errs[s] = m.shards[s].readSection(secs[s], m.dim, version)
		if errs[s] != nil {
			errs[s] = fmt.Errorf("%w: shard %d: %w", ErrCorruptState, s, errs[s])
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	// A nextID at or below an existing ID would hand out colliding IDs on
	// the first AddRecords; reject it like every other corrupt field.
	if maxEntID := slices.Max(maxEntIDs); m.nextID <= maxEntID {
		return nil, fmt.Errorf("%w: nextID %d not above max entity ID %d", ErrCorruptState, m.nextID, maxEntID)
	}
	m.publishAll(0)
	m.loadBytes, m.loadTime = int64(len(raw)), time.Since(began)
	return m, nil
}

// readSection decodes one shard's section bytes into sh, returning the
// largest entity ID seen (-1 when the shard is empty). Every count is checked
// against the bytes the section still holds before anything is sized by it
// (binio.Reader.Count), and each arena is one allocation of its final size
// filled by one bulk copy.
func (sh *shard) readSection(sec []byte, dim int, version uint32) (maxEntID int, err error) {
	rd := binio.NewReader(sec)

	nEnts := rd.Count(8 + 4*dim)
	if rd.Err() != nil {
		return -1, fmt.Errorf("entities: %w", rd.Err())
	}
	sh.entIDs = rd.Ints(nEnts)
	maxEntID = -1
	if nEnts > 0 {
		maxEntID = slices.Max(sh.entIDs)
	}
	sh.entVecs = vector.StoreOver(dim, rd.F32s(nEnts*dim))

	// A tuple is at least its member count and its join distance — and in a
	// version-4 file its row of the centroids block.
	tupleBytes := 8
	if version == matcherFormatV4 {
		tupleBytes += 4 * dim
	}
	nTuples := rd.Count(tupleBytes)
	if rd.Err() != nil {
		return -1, fmt.Errorf("tuples: %w", rd.Err())
	}
	for i := 0; i < nTuples; i++ {
		nMembers := rd.Count(4)
		if rd.Err() != nil {
			return -1, fmt.Errorf("tuple %d: %w", i, rd.Err())
		}
		if nMembers > nEnts {
			return -1, fmt.Errorf("tuple %d has %d members, the shard %d entities", i, nMembers, nEnts)
		}
		members := make([]int, nMembers)
		for j := range members {
			p := rd.I32()
			if p < 0 || p >= nEnts {
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
	if version == matcherFormatV4 {
		rd.Next(nTuples * dim * 4) // the centroids block
	}
	sh.compactions = rd.I64()
	if rd.Err() != nil {
		return -1, rd.Err()
	}

	ix, err := hnsw.Decode(rd)
	if err != nil {
		return -1, err
	}
	if ix.Dim() != dim {
		return -1, fmt.Errorf("index dim %d does not match matcher dim %d", ix.Dim(), dim)
	}
	if rd.Len() != 0 {
		return -1, fmt.Errorf("section has %d trailing bytes", rd.Len())
	}
	// Index ids are local tuple indexes, and a tuple's current node is the
	// last one carrying its id (Add order is history order). A tuple without
	// a node could never be found or re-ranked.
	for node, id := range ix.IDs() {
		if id < 0 || id >= nTuples {
			return -1, fmt.Errorf("index references tuple %d, have %d tuples", id, nTuples)
		}
		sh.tuples.mut(id).node = int32(node)
	}
	for l := 0; l < nTuples; l++ {
		if sh.tuples.at(l).node < 0 {
			return -1, fmt.Errorf("tuple %d has no index entry", l)
		}
	}
	sh.index = ix
	return maxEntID, nil
}
