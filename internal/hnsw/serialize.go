package hnsw

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"repro/internal/binio"
	"repro/internal/vector"
)

// Binary index format (all integers little-endian):
//
//	magic    [8]byte  "HNSWIDX\n"
//	version  uint32   currently 2
//	config   M, EfConstruction, EfSearch, metric as int32; Seed as int64
//	shape    dim, count, entry, maxL as int32 (entry is -1 when empty)
//	ids      count × int64
//	levels   count × int32
//	links    count × { per layer 0..level: nLinks int32, links []int32 }
//	vectors  count × dim × float32, the whole arena as one block
//
// The format captures the complete index state — levels, links, and vectors —
// so a loaded index answers every query exactly as the index that was saved.
// The metric field is always metricCosineUnit: the index has one distance,
// and the field stays so that every byte of the format stays where it was.
//
// Version 1 interleaved ids/levels/links per node and the vectors as
// per-node records; version 2 stores each as its own section so the loader
// rebuilds the flat in-memory layout (vector arena, CSR-style links) with
// bulk reads instead of count*dim scalar reads.

var magic = [8]byte{'H', 'N', 'S', 'W', 'I', 'D', 'X', '\n'}

const formatVersion = 2

// metricCosineUnit is the value Save writes to the metric field and the only
// one Decode accepts.
const metricCosineUnit = 2

// ErrFormatVersion is wrapped by Load when the file's format version is not
// the one this build writes; callers distinguish "old index file, rebuild
// it" from corruption with errors.Is.
var ErrFormatVersion = errors.New("hnsw: unsupported index format version")

// Corruption bounds: a bad count in a tiny file must fail with an error, not
// a multi-gigabyte allocation. Genuine indexes stay far inside these.
const (
	maxSaneCount = 1 << 26 // nodes per index
	maxSaneLevel = 64      // node level (truncated geometric keeps levels tiny)
	maxSaneM     = 1 << 12 // config M; links per layer are <= 2*M
	maxSaneDim   = 1 << 20
)

// Save writes the index to w in the versioned binary format above: the small
// fields through one bufio.Writer (w itself when it already is one), each
// link block and the vector arena as one Write of their own memory. The index
// must not be mutated concurrently, and saving one whose Appended nodes wait
// for Link panics: the file has no place for a node outside the graph.
func (ix *Index) Save(w io.Writer) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.mustBeLinked("Save")

	bw := bufio.NewWriter(w)
	bw.Write(magic[:])
	binio.WriteU32(bw, formatVersion)
	binio.WriteI32(bw, int32(ix.cfg.M))
	binio.WriteI32(bw, int32(ix.cfg.EfConstruction))
	binio.WriteI32(bw, int32(ix.cfg.EfSearch))
	binio.WriteI32(bw, metricCosineUnit)
	binio.WriteI64(bw, ix.cfg.Seed)
	binio.WriteI32(bw, int32(ix.dim))
	binio.WriteI32(bw, int32(len(ix.ids)))
	binio.WriteI32(bw, int32(ix.entry))
	binio.WriteI32(bw, int32(ix.maxL))
	binio.WriteInts(bw, ix.ids)
	binio.WriteI32s(bw, ix.levels)
	for i := range ix.ids {
		for l := 0; l <= int(ix.levels[i]); l++ {
			// A block in memory is its file form: the count, then the links.
			blk := ix.la.block(ix.blockStart(i, l))
			binio.WriteI32s(bw, blk[:1+blk[0]])
		}
	}
	binio.WriteF32s(bw, ix.vecs.Raw())
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("hnsw: save: %w", err)
	}
	return nil
}

// SaveSize returns the exact number of bytes Save would write now: what a
// container format that embeds the index writes as its length prefix.
func (ix *Index) SaveSize() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()

	n := len(magic) + 4 + 4*4 + 8 + 4*4 // magic, version, config, shape
	n += len(ix.ids) * (8 + 4)          // ids, levels
	for i := range ix.ids {
		for l := 0; l <= int(ix.levels[i]); l++ {
			n += 4 * (1 + len(ix.neighbors(i, l)))
		}
	}
	return n + 4*len(ix.vecs.Raw())
}

// Load reads an index previously written by Save. The returned index is an
// exact reconstruction: searches return identical results, and subsequent
// Adds draw node levels from the same point in the seeded random stream as
// they would have on the original index. A file written by an older format
// version fails with an error wrapping ErrFormatVersion. Load consumes r to
// its end (binio.ReadAll) and decodes from the front of what it read.
func Load(r io.Reader) (*Index, error) {
	raw, err := binio.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("hnsw: load: %w", err)
	}
	return Decode(binio.NewReader(raw))
}

// Decode is Load over bytes already in memory: it reads one index from rd and
// leaves the cursor behind its last byte, so a container format (the matcher
// file) decodes its embedded index in place. Every array is allocated once, at
// its final size, after the bytes left have been checked to hold it.
func Decode(rd *binio.Reader) (*Index, error) {
	if m := rd.Next(len(magic)); string(m) != string(magic[:]) {
		return nil, fmt.Errorf("hnsw: load: bad magic %q (not an HNSW index file)", m)
	}
	version := rd.U32()
	if rd.Err() == nil && version != formatVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d", ErrFormatVersion, version, formatVersion)
	}

	var cfg Config
	cfg.M = rd.I32()
	cfg.EfConstruction = rd.I32()
	cfg.EfSearch = rd.I32()
	metric := rd.I32()
	cfg.Seed = rd.I64()
	dim := rd.I32()
	count := rd.I32()
	entry := rd.I32()
	maxL := rd.I32()
	if rd.Err() != nil {
		return nil, fmt.Errorf("hnsw: load: %w", rd.Err())
	}
	if cfg.M <= 0 || cfg.M > maxSaneM {
		return nil, fmt.Errorf("hnsw: load: implausible config M %d", cfg.M)
	}
	// Save writes the config New normalised; one that is not was not written
	// by Save and would not save back to the same bytes.
	if cfg != cfg.withDefaults() {
		return nil, fmt.Errorf("hnsw: load: implausible config %+v", cfg)
	}
	// The metric field is always 2. A 1 is a euclidean index and a 0 a
	// non-unit cosine one, and this build has no kernel for either; any
	// other value is corruption. No matcher ever saved an index holding
	// anything but 2.
	if metric != metricCosineUnit {
		return nil, fmt.Errorf("hnsw: load: metric %d, want %d (cosine over unit vectors)", metric, metricCosineUnit)
	}
	if dim <= 0 || dim > maxSaneDim {
		return nil, fmt.Errorf("hnsw: load: implausible dim %d", dim)
	}
	// A node is at least its id, its level, its layer-0 link count and its
	// vector; past this check the header's count sizes only what is there.
	if count < 0 || count > maxSaneCount || count > rd.Len()/(8+4+4+4*dim) {
		return nil, fmt.Errorf("hnsw: load: implausible node count %d for the %d bytes that follow", count, rd.Len())
	}
	if entry < -1 || entry >= count {
		return nil, fmt.Errorf("hnsw: load: entry point %d out of range for %d nodes", entry, count)
	}
	if (entry < 0) != (count == 0) {
		return nil, fmt.Errorf("hnsw: load: entry point %d inconsistent with %d nodes", entry, count)
	}

	ix := New(dim, cfg)
	ix.entry = entry
	ix.maxL = maxL
	ix.linked = count // a saved node is a linked one
	ix.ids = rd.Ints(count)
	ix.levels = rd.I32s(count)
	// What the levels promise must be present before the link arena is
	// sized by them: one count per layer, and every vector.
	need := 4 * dim * count
	for i, level := range ix.levels {
		// Levels follow a truncated geometric distribution; genuine levels
		// stay tiny, so a large one is corruption — and would also drive a
		// huge links allocation below.
		if level < 0 || level > maxSaneLevel {
			return nil, fmt.Errorf("hnsw: load: node %d has implausible level %d", i, level)
		}
		need += 4 * (int(level) + 1)
	}
	if need > rd.Len() {
		return nil, fmt.Errorf("hnsw: load: %d nodes need %d bytes of links and vectors, %d follow: %w", count, need, rd.Len(), io.ErrUnexpectedEOF)
	}
	// Regions are laid out node by node, which is the chunk layout a fresh
	// build of the same nodes produces; every chunk is writer-owned, so the
	// block writes below never copy.
	ix.offs = make([]int64, count)
	for i := 0; i < count; i++ {
		ix.offs[i] = ix.la.alloc(ix.regionSize(int(ix.levels[i])))
		for l := 0; l <= int(ix.levels[i]); l++ {
			nLinks := rd.I32()
			if rd.Err() != nil {
				return nil, fmt.Errorf("hnsw: load: node %d layer %d: %w", i, l, rd.Err())
			}
			// Construction never exceeds the per-layer capacity (2*M at
			// layer 0, M above); more would overflow the flat region.
			if nLinks < 0 || nLinks > ix.layerCap(l) {
				return nil, fmt.Errorf("hnsw: load: node %d layer %d has implausible link count %d", i, l, nLinks)
			}
			blk := ix.la.mutBlock(ix.blockStart(i, l))
			blk[0] = int32(nLinks)
			rd.I32sInto(blk[1 : 1+nLinks])
			for _, nb := range blk[1 : 1+nLinks] {
				if nb < 0 || int(nb) >= count {
					return nil, fmt.Errorf("hnsw: load: node %d layer %d links to out-of-range node %d", i, l, nb)
				}
				// Every layer-l link must target a node that exists at
				// layer l: greedyClosest reads the target's layer-l block
				// directly, so a link down to a lower-level node would read
				// out of the target's region on the first Search.
				if int(ix.levels[nb]) < l {
					return nil, fmt.Errorf("hnsw: load: node %d layer %d links to node %d of level %d", i, l, nb, ix.levels[nb])
				}
			}
		}
	}
	// Construction keeps the entry point at the highest level; a file that
	// violates that would make Search read past the entry's region.
	if entry >= 0 && int(ix.levels[entry]) != maxL {
		return nil, fmt.Errorf("hnsw: load: entry node level %d does not match maxL %d", ix.levels[entry], maxL)
	}
	ix.vecs = vector.StoreOver(dim, rd.F32s(dim*count))
	if rd.Err() != nil {
		return nil, fmt.Errorf("hnsw: load: vectors: %w", rd.Err())
	}
	// Advance the level-sampling stream past the draws the original build
	// consumed, so an Add after Load assigns the same level it would have
	// on the never-saved index.
	for i := 0; i < count; i++ {
		ix.randomLevel()
	}
	return ix, nil
}

// Config returns the construction parameters the index was built with.
func (ix *Index) Config() Config { return ix.cfg }

// IDs returns the external ids of all indexed vectors in insertion order.
// Callers that use ids as indexes into their own state (e.g. the matcher's
// tuple table) can validate a loaded index against it.
func (ix *Index) IDs() []int {
	out := make([]int, len(ix.ids))
	copy(out, ix.ids)
	return out
}
