package hnsw

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/binio"
	"repro/internal/vector"
)

// Binary index format (all integers little-endian):
//
//	magic    [8]byte  "HNSWIDX\n"
//	version  uint32   currently 2
//	config   M, EfConstruction, EfSearch, Metric as int32; Seed as int64
//	shape    dim, count, entry, maxL as int32 (entry is -1 when empty)
//	ids      count × int64
//	levels   count × int32
//	links    count × { per layer 0..level: nLinks int32, links []int32 }
//	vectors  count × dim × float32, the whole arena as one block
//
// The format captures the complete index state — levels, links, and vectors —
// so a loaded index answers every query exactly as the index that was saved.
//
// Version 1 interleaved ids/levels/links per node and the vectors as
// per-node records; version 2 stores each as its own section so the loader
// rebuilds the flat in-memory layout (vector arena, CSR-style links) with
// bulk reads instead of count*dim scalar reads.

var magic = [8]byte{'H', 'N', 'S', 'W', 'I', 'D', 'X', '\n'}

const formatVersion = 2

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

// Save writes the index to w in the versioned binary format above. The index
// must not be mutated concurrently.
func (ix *Index) Save(w io.Writer) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return fmt.Errorf("hnsw: save: %w", err)
	}
	binio.WriteU32(bw, formatVersion)
	binio.WriteI32(bw, int32(ix.cfg.M))
	binio.WriteI32(bw, int32(ix.cfg.EfConstruction))
	binio.WriteI32(bw, int32(ix.cfg.EfSearch))
	binio.WriteI32(bw, int32(ix.cfg.Metric))
	binio.WriteI64(bw, ix.cfg.Seed)
	binio.WriteI32(bw, int32(ix.dim))
	binio.WriteI32(bw, int32(len(ix.ids)))
	binio.WriteI32(bw, int32(ix.entry))
	binio.WriteI32(bw, int32(ix.maxL))
	for _, id := range ix.ids {
		binio.WriteI64(bw, int64(id))
	}
	for _, lv := range ix.levels {
		binio.WriteI32(bw, lv)
	}
	for i := range ix.ids {
		for l := 0; l <= int(ix.levels[i]); l++ {
			nbs := ix.neighbors(i, l)
			binio.WriteI32(bw, int32(len(nbs)))
			for _, nb := range nbs {
				binio.WriteI32(bw, nb)
			}
		}
	}
	binio.WriteF32s(bw, ix.vecs.Raw())
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("hnsw: save: %w", err)
	}
	return nil
}

// SaveSize returns the exact number of bytes Save would write now, so a
// caller collecting the index in memory can reserve them once instead of
// growing a buffer by doubling under a multi-megabyte arena.
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
// version fails with an error wrapping ErrFormatVersion.
func Load(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("hnsw: load: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("hnsw: load: bad magic %q (not an HNSW index file)", m[:])
	}
	rd := binio.NewReader(br)
	version := rd.U32()
	if rd.Err() == nil && version != formatVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d", ErrFormatVersion, version, formatVersion)
	}

	var cfg Config
	cfg.M = rd.I32()
	cfg.EfConstruction = rd.I32()
	cfg.EfSearch = rd.I32()
	cfg.Metric = vector.Metric(rd.I32())
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
	// Save writes the config New normalised and a metric New resolved; one
	// that is neither was not written by Save, would not save back to the
	// same bytes, and an unknown metric has no kernel to resolve.
	if cfg != cfg.withDefaults() || cfg.Metric < vector.Cosine || cfg.Metric > vector.CosineUnit {
		return nil, fmt.Errorf("hnsw: load: implausible config %+v", cfg)
	}
	if dim <= 0 || dim > maxSaneDim {
		return nil, fmt.Errorf("hnsw: load: implausible dim %d", dim)
	}
	if count < 0 || count > maxSaneCount {
		return nil, fmt.Errorf("hnsw: load: implausible node count %d", count)
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
	// ids and levels grow as their bytes arrive, and offs is sized only once
	// they have: the header's count alone never sizes an allocation.
	for i := 0; i < count; i++ {
		ix.ids = append(ix.ids, int(rd.I64()))
		if rd.Err() != nil {
			return nil, fmt.Errorf("hnsw: load: node %d: %w", i, rd.Err())
		}
	}
	for i := 0; i < count; i++ {
		level := rd.I32()
		if rd.Err() != nil {
			return nil, fmt.Errorf("hnsw: load: node %d: %w", i, rd.Err())
		}
		// Levels follow a truncated geometric distribution; genuine levels
		// stay tiny, so a large one is corruption — and would also drive a
		// huge links allocation below.
		if level < 0 || level > maxSaneLevel {
			return nil, fmt.Errorf("hnsw: load: node %d has implausible level %d", i, level)
		}
		ix.levels = append(ix.levels, int32(level))
	}
	ix.offs = make([]int64, count)
	// Allocate each node's arena region as its data actually arrives, never
	// from the header's promise alone: a crafted count/level combination
	// within the individual bounds above could still multiply to terabytes,
	// and a short file must fail with an error at its first missing byte —
	// like the per-record v1 loader did — not with an up-front allocation
	// panic. The resulting chunk layout is the one a fresh build of the same
	// nodes produces; every chunk is writer-owned, so the block writes below
	// never copy.
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
			blk, _ := ix.la.mutBlock(ix.blockStart(i, l))
			blk[0] = int32(nLinks)
			for j := 0; j < nLinks; j++ {
				nb := int32(rd.I32())
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
				blk[1+j] = nb
			}
		}
	}
	// Construction keeps the entry point at the highest level; a file that
	// violates that would make Search read past the entry's region.
	if entry >= 0 && int(ix.levels[entry]) != maxL {
		return nil, fmt.Errorf("hnsw: load: entry node level %d does not match maxL %d", ix.levels[entry], maxL)
	}
	// Read the vector arena in bounded row chunks for the same reason: the
	// bytes must exist before the next chunk's memory does.
	const rowChunk = 4096
	for read := 0; read < count; {
		n := count - read
		if n > rowChunk {
			n = rowChunk
		}
		ix.vecs.Grow(n)
		rd.F32s(ix.vecs.Raw()[read*dim : (read+n)*dim])
		if rd.Err() != nil {
			return nil, fmt.Errorf("hnsw: load: vectors: %w", rd.Err())
		}
		read += n
	}
	// Rebuild the cosine norm cache from the arena; identical inputs give
	// identical norms, so a loaded index computes identical distances.
	if cfg.Metric == vector.Cosine {
		ix.cosNorms = make([]float64, count)
		for i := range ix.cosNorms {
			v := ix.vecs.At(i)
			ix.cosNorms[i] = math.Sqrt(float64(vector.Dot(v, v)))
		}
	}
	// Rebuild the link-distance cache (not persisted: it is derived state;
	// the arena sized it alongside each link chunk). Kernels are
	// deterministic, so the recomputed values equal the ones the original
	// build cached and post-load Adds shrink identically.
	for i := 0; i < count; i++ {
		for l := 0; l <= int(ix.levels[i]); l++ {
			blk, dists := ix.la.mutBlock(ix.blockStart(i, l))
			for k := 0; k < int(blk[0]); k++ {
				dists[1+k] = ix.nodeDist(i, int(blk[1+k]))
			}
		}
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
