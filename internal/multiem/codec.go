package multiem

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"repro/internal/binio"
	"repro/internal/embed"
	"repro/internal/hnsw"
	"repro/internal/par"
	"repro/internal/vector"
)

// Matcher binary format (little-endian), version 9:
//
//	magic     [8]byte  "MEMMATC\n"
//	version   uint32
//	dim       int32
//	M         float32  the merge threshold the matcher absorbs under
//	probes    len(probeTexts) × dim × float32, the encoder's embeddings of them
//	nextID    int64
//	nShards   int32
//	schema    count + length-prefixed strings
//	selected  count (-1 = all attributes) + int32 positions
//	per shard:
//	  section bytes  int64 (length of the section that follows)
//	  entIDs      count + count × int64
//	  entVecs     count bitmask rows, the shard's embeddings in row order
//	  tuples      count × { nMembers int32; members []int32 (local rows); maxJoinDist f32 }
//	  index       embedded hnsw.Index (its own versioned format, 4): the
//	              tuples' graph nodes, ids = local tuples, each tuple's
//	              first node first
//	  centroids   one bitmask row a tuple, in tuple order: its centroid
//
// The file holds what defines the state it serves: M, under which every
// later absorption is decided and every replayed one checked, and the
// probes, which tie the embeddings to the encoder that made them
// (checkHeader). It holds the live rows only — no dead centroid row, and no
// count of reclamations — so it is a function of the logical state. Every
// row is written as it sits in memory (vector.SparseRows.WriteRows), whole
// even where it shares another row's words; a loader shares it again by the
// same rule (shard.nodeAlias, and a centroid its tuple's last node's row), so
// a file saves back to itself. Each shard's section is self-contained and
// length-prefixed, so a loader finds every section without decoding the one
// before it, and a loaded matcher has the exact shard topology it was saved
// with.
//
// LoadMatcher also reads version 8, which indexed a node per centroid
// version. It holds no centroid section, and a compaction count (int64)
// between the tuples and the index, which is dropped; every node is kept,
// the superseded versions as more nodes of their tuples, and each tuple's
// last node, its current centroid, gives its centroid row. It saves as
// version 9. Older files are upgraded by a load and a Save under a build
// that reads them (docs/OPERATIONS.md).

var matcherMagic = [8]byte{'M', 'E', 'M', 'M', 'A', 'T', 'C', '\n'}

// matcherFormatV8 is the older version LoadMatcher still takes.
const matcherFormatVersion, matcherFormatV8 = 9, 8

// ErrFormatVersion is wrapped by LoadMatcher when the file's format version
// is not one this build reads (9 and 8); callers distinguish "old matcher
// file, upgrade it" from corruption with errors.Is.
var ErrFormatVersion = errors.New("multiem: unsupported matcher format version")

// ErrEncoderMismatch is wrapped by LoadMatcher when the caller's encoder did
// not make the file's embeddings: another dim, or a probe that embeds to
// other bits. Such a file is refused before any section is decoded.
var ErrEncoderMismatch = errors.New("multiem: encoder does not match the matcher file's")

// ErrCorruptState is wrapped by LoadMatcher for input that is not a
// well-formed matcher file of a version it reads: truncated, a count or
// reference out of range, or sections that contradict each other (a tuple
// the index never mentions). Such a state could not be served, so it is
// refused whole.
var ErrCorruptState = errors.New("multiem: corrupt matcher state")

// probeTexts are the strings a matcher file holds the embeddings of, as its
// encoder check: words, numbers, codes, punctuation and non-ASCII letters.
var probeTexts = [...]string{
	"apple iphone 8 plus 64gb silver unlocked",
	"Tim O'Brien - The Things They Carried (1990)",
	"st. mary's hospital 51.5074 -0.1278",
	"sony bravia kd-55x80j 55 inch 4k tv",
	"Beethoven: Symphony No. 9 in D minor, Op. 125",
	"Café Zürich, Straße 12, 8001",
	"AB1234-XYZ 2024-10-17 #42",
	"the quick brown fox jumps over the lazy dog",
}

// embedProbes returns enc's embeddings of probeTexts, row after row.
func embedProbes(enc embed.Encoder) []float32 {
	out := make([]float32, 0, len(probeTexts)*enc.Dim())
	for _, s := range probeTexts {
		out = append(out, enc.Encode(s)...)
	}
	return out
}

// checkHeader refuses a file's M outside [0,2] as corrupt. It then embeds
// probeTexts again with enc and refuses enc, naming the first probe that
// differs, unless each is the file's row bit for bit: a file that moved to a
// host computing other bits is refused here, before its rows drift from the
// primary's.
func checkHeader(enc embed.Encoder, mergeM float32, probes []float32, dim int) error {
	if !(mergeM >= 0 && mergeM <= 2) { // NaN included
		return fmt.Errorf("%w: M %v is not a cosine distance in [0,2]", ErrCorruptState, mergeM)
	}
	for i, s := range probeTexts {
		got, want := enc.Encode(s), probes[i*dim:(i+1)*dim]
		if !slices.EqualFunc(got, want, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) }) {
			return fmt.Errorf("%w: probe %d %q embeds at distance %v from the file's embedding of it", ErrEncoderMismatch, i, s, vector.CosineUnitDist(got, want))
		}
	}
	return nil
}

// Header bounds the bytes present cannot give (binio.Reader.Count gives the
// rest): the largest dimension a matcher holds, and empty shards that stay
// cheap.
const (
	maxSaneDim    = 1<<16 - 1
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
	binio.WriteF32(bw, m.mergeM)
	binio.WriteWords(bw, m.probes)
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
	v.entVecs.WriteRows(bw)
	binio.WriteI32(bw, int32(v.tuples.Len()))
	v.tuples.each(func(ts *tupleState) {
		binio.WriteI32(bw, int32(len(ts.members)))
		for _, p := range ts.members {
			binio.WriteI32(bw, int32(p))
		}
		binio.WriteF32(bw, ts.maxJoinDist)
	})
	// The index writes through bw as well (bufio.NewWriter returns a
	// bufio.Writer it is handed); its flush reports any error from above.
	if err := v.index.Save(bw); err != nil {
		return fmt.Errorf("multiem: save matcher: %w", err)
	}
	v.tuples.each(func(ts *tupleState) { v.cents.WriteRow(bw, int(ts.cent)) })
	return nil
}

// sectionSize is the number of bytes writeSection produces for this view.
func (v *shardView) sectionSize() int {
	n := 4 + 8*len(v.entIDs) + v.entVecs.RowsSize() // entities
	n += 4                                          // tuple count
	v.tuples.each(func(ts *tupleState) {
		n += 4 + 4*len(ts.members) + 4       // the tuple
		n += 4 * v.cents.Words(int(ts.cent)) // its centroid
	})
	return n + v.index.SaveSize()
}

// LoadMatcher reads a matcher written by Save. The shard count, M and the
// embeddings come from the file; opt supplies only what code cannot persist:
// the encoder, which must embed the file's probes as the file holds them
// (ErrEncoderMismatch), and the query beam HNSW.EfSearch. r is read to its
// end, once (binio.ReadAll), and decoded from that buffer; bytes past the
// last section are ignored.
func LoadMatcher(r io.Reader, opt Options) (*Matcher, error) {
	if opt.Encoder == nil || opt.HNSW.EfSearch < 0 {
		return nil, errors.New("multiem: load matcher: Options need an Encoder and HNSW.EfSearch >= 0")
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
	if rd.Err() == nil && version != matcherFormatVersion && version != matcherFormatV8 {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d and %d", ErrFormatVersion, version, matcherFormatVersion, matcherFormatV8)
	}

	m := &Matcher{opt: opt, dim: rd.I32()}
	if rd.Err() == nil && (m.dim <= 0 || m.dim > maxSaneDim) {
		return nil, fmt.Errorf("%w: dim %d", ErrCorruptState, m.dim)
	}
	if got := opt.Encoder.Dim(); rd.Err() == nil && got != m.dim {
		return nil, fmt.Errorf("%w: the encoder embeds in %d dimensions, the file in %d", ErrEncoderMismatch, got, m.dim)
	}
	m.mergeM, m.probes = rd.F32(), make([]float32, len(probeTexts)*opt.Encoder.Dim())
	binio.ReadWords(rd, m.probes)
	m.nextID = int(rd.I64())
	nShards := rd.I32()
	if rd.Err() != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptState, rd.Err())
	}
	if err := checkHeader(opt.Encoder, m.mergeM, m.probes, m.dim); err != nil {
		return nil, err
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
		maxEntIDs[s], errs[s] = m.shards[s].readSection(secs[s], version)
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

// readSection decodes one shard's section bytes, of the given format
// version, into sh, returning the largest entity ID seen (-1 when the shard
// is empty). Every count is checked against the bytes the section still
// holds before anything is sized by it (binio.Reader.Count), and each arena
// is allocated at its final size — chunks, the last holding exactly the rows
// left — the embeddings' from the words their rows hold.
func (sh *shard) readSection(sec []byte, version uint32) (maxEntID int, err error) {
	rd := binio.NewReader(sec)
	legacy := version == matcherFormatV8

	nEnts := rd.Count(8) // an entity is its ID and its row, which ReadRows bounds
	if rd.Err() != nil {
		return -1, fmt.Errorf("entities: %w", rd.Err())
	}
	sh.entIDs = rd.Ints(nEnts)
	maxEntID = -1
	if nEnts > 0 {
		maxEntID = slices.Max(sh.entIDs)
	}
	if err := sh.entVecs.ReadRows(rd, nEnts, nil); err != nil {
		return -1, fmt.Errorf("entities: %w", err)
	}

	// A tuple is at least its member count and its join distance.
	nTuples := rd.Count(8)
	if rd.Err() != nil {
		return -1, fmt.Errorf("tuples: %w", rd.Err())
	}
	sh.tuples.GrowExact(nTuples)
	for i := 0; i < nTuples; i++ {
		nMembers := rd.Count(4)
		if rd.Err() != nil {
			return -1, fmt.Errorf("tuple %d: %w", i, rd.Err())
		}
		if nMembers == 0 || nMembers > nEnts {
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
		*sh.tuples.at(i) = tupleState{
			members:     members,
			maxJoinDist: rd.F32(),
			minEntID:    minMemberID(members, sh.entIDs),
			cent:        int32(i),
		}
	}
	if legacy {
		rd.I64() // the compaction count, which nothing reads now
	}
	if rd.Err() != nil {
		return -1, rd.Err()
	}

	// The node rows go on the shard's data arena, after the entity rows, and
	// the centroid rows after them, each sharing a row where the rule live
	// ingest shares it by says so.
	ix, err := hnsw.DecodeOn(rd, sh.entVecs.Data(), sh.nodeAlias(sh.entVecs))
	if err != nil {
		return -1, err
	}
	sh.index = ix
	// Index ids are local tuple indexes. A tuple without a node could never
	// be found.
	if err := sh.chainNodes(); err != nil {
		return -1, err
	}
	alias := sh.centAlias()
	if legacy {
		// Each tuple's last node is its current centroid.
		for l := range nTuples {
			sh.cents.AppendRef(alias(l, nil))
		}
	} else if err := sh.cents.ReadRows(rd, nTuples, alias); err != nil {
		return -1, fmt.Errorf("centroids: %w", err)
	}
	if rd.Len() != 0 {
		return -1, fmt.Errorf("section has %d trailing bytes", rd.Len())
	}
	return maxEntID, nil
}
