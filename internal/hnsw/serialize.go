package hnsw

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"repro/internal/binio"
	"repro/internal/vector"
)

// Binary index format, version 4 (all integers little-endian):
//
//	magic    [8]byte  "HNSWIDX\n"
//	version  uint32   4
//	config   M, EfConstruction, EfSearch as int32
//	shape    dim, count as int32
//	ids      count × int64
//	links    count × (1+2M) int32: each node's link block as it sits in
//	         memory — the link count, the links, the slack slots zero
//	vectors  count bitmask rows in node order, as they sit in memory
//	         (vector.SparseRows.WriteRows): a node that shares its row
//	         with another table writes it whole
//
// The format captures the complete index state — links and vectors — so a
// loaded index answers every query, and takes every later Add, exactly as the
// index that was saved. The link section is the arena itself, so its size is
// fixed by count and M, and the vectors are the rows' own words, so a file
// pays for the memory it decodes into.
//
// Older versions are upgraded through the matcher file that embeds them
// (docs/OPERATIONS.md).

var magic = [8]byte{'H', 'N', 'S', 'W', 'I', 'D', 'X', '\n'}

// formatVersion is the version Save writes and Load reads.
const formatVersion = 4

// ErrFormatVersion is wrapped by Load when the file's format version is not
// the one this build reads; callers distinguish "old index file, upgrade
// it" from corruption with errors.Is.
var ErrFormatVersion = errors.New("hnsw: unsupported index format version")

// ErrCorrupt is wrapped by DecodeOn (and Load) for input that is not a
// well-formed index file of a version it reads: truncated, a count or link
// out of range, or a config Save would not have written.
var ErrCorrupt = errors.New("hnsw: corrupt index")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// Corruption bounds: a bad count in a tiny file must fail with an error, not
// a multi-gigabyte allocation. Genuine indexes stay far inside these.
const (
	maxSaneCount = 1 << 26 // nodes per index
	maxSaneM     = 1 << 12 // config M; a node holds at most 2*M links
	maxSaneDim   = 1 << 20
)

// Save writes the index to w in the versioned binary format above: the small
// fields through one bufio.Writer (w itself when it already is one), the link
// arena a chunk at a time, each chunk one Write of its own memory, and the
// vectors one row at a time. The index must not be mutated concurrently.
// Saving one whose Appended nodes wait for Link panics: the file has no place
// for a node outside the graph.
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
	binio.WriteI32(bw, int32(ix.dim))
	binio.WriteI32(bw, int32(len(ix.ids)))
	binio.WriteInts(bw, ix.ids)
	for c := range ix.la.Chunks() {
		binio.WriteWords(bw, ix.la.Chunk(c))
	}
	ix.vecs.WriteRows(bw)
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
	const header = len(magic) + 4 + 5*4 // magic, version, config, shape
	return header + len(ix.ids)*(8+4*ix.la.Width()) + ix.vecs.RowsSize()
}

// Load reads an index previously written by Save. The returned index is an
// exact reconstruction: searches return identical results, and subsequent
// Adds build the graph they would have built on the original index. A file
// of a format version DecodeOn does not read fails with an error wrapping
// ErrFormatVersion, any other malformed one with ErrCorrupt. Load consumes r
// to its end (binio.ReadAll) and decodes from the front of what it read.
func Load(r io.Reader) (*Index, error) {
	raw, err := binio.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("hnsw: load: %w", err)
	}
	return DecodeOn(binio.NewReader(raw), nil, nil)
}

// DecodeOn is Load over bytes already in memory: it reads one index from rd
// and leaves the cursor behind its last byte, so a container format (the
// matcher file) decodes its embedded index in place. Every array is
// allocated after the bytes left have been checked to hold it. The rows go
// on data, a data arena its caller shares (NewOn), or on one of their own
// when data is nil; alias, which may be nil, is called once a node, in node
// order, with the node's id and words, and a node whose row has the words of
// the row it names is that row (vector.SparseRows.Load). A file of another
// version, or dimensionality than data's, fails.
func DecodeOn(rd *binio.Reader, data *vector.RowData, alias func(id int, w []uint32) vector.Ref) (*Index, error) {
	if m := rd.Next(len(magic)); string(m) != string(magic[:]) {
		return nil, corrupt("bad magic %q (not an HNSW index file)", m)
	}
	version := rd.U32()
	if rd.Err() == nil && version != formatVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d", ErrFormatVersion, version, formatVersion)
	}

	var cfg Config
	cfg.M = rd.I32()
	cfg.EfConstruction = rd.I32()
	cfg.EfSearch = rd.I32()
	dim := rd.I32()
	count := rd.I32()
	if rd.Err() != nil {
		return nil, corrupt("header: %v", rd.Err())
	}
	if cfg.M <= 0 || cfg.M > maxSaneM {
		return nil, corrupt("implausible config M %d", cfg.M)
	}
	// Save writes the config New normalised; one that is not was not written
	// by Save and would not save back to the same bytes.
	if cfg != cfg.withDefaults() {
		return nil, corrupt("implausible config %+v", cfg)
	}
	if dim <= 0 || dim > maxSaneDim {
		return nil, corrupt("implausible dim %d", dim)
	}
	if data == nil {
		data = vector.NewRowData(dim)
	} else if data.Dim() != dim {
		return nil, corrupt("index dim %d on a dim-%d data arena", dim, data.Dim())
	}
	// A node is its id, its block and its row, which ReadRows bounds, so the
	// arena a file decodes into is never larger than the file: past this
	// check the header's count sizes only what is there.
	ix := NewOn(data, cfg)
	if count < 0 || count > maxSaneCount || count > rd.Len()/(8+4*ix.la.Width()) {
		return nil, corrupt("implausible node count %d of M %d for the %d bytes that follow", count, cfg.M, rd.Len())
	}

	ix.linked = count // a saved node is a linked one
	ix.ids = rd.Ints(count)
	ix.la.Grow(count)
	if err := ix.readLinks(rd); err != nil {
		return nil, err
	}
	if err := ix.vecs.ReadRows(rd, count, ix.byID(alias)); err != nil {
		return nil, corrupt("vectors: %v", err)
	}
	return ix, nil
}

// readLinks fills the arena from the link section and checks every
// block: a count within 2M, links to existing nodes, zero slack (so the index
// saves back to the bytes it was read from).
func (ix *Index) readLinks(rd *binio.Reader) error {
	n := len(ix.ids)
	for c := range ix.la.Chunks() {
		binio.ReadWords(rd, ix.la.Chunk(c))
	}
	if rd.Err() != nil {
		return corrupt("links: %v", rd.Err())
	}
	for i := range n {
		blk := ix.la.At(i)
		cnt := int(blk[0])
		if cnt < 0 || cnt > 2*ix.cfg.M {
			return corrupt("node %d has implausible link count %d", i, cnt)
		}
		if err := checkLinks(i, blk[1:1+cnt], n); err != nil {
			return err
		}
		for _, s := range blk[1+cnt:] {
			if s != 0 {
				return corrupt("node %d has a nonzero slot past its %d links", i, cnt)
			}
		}
	}
	return nil
}

// checkLinks refuses a link of node i to a node outside 0..n-1.
func checkLinks(i int, links []int32, n int) error {
	for _, nb := range links {
		if nb < 0 || int(nb) >= n {
			return corrupt("node %d links to out-of-range node %d", i, nb)
		}
	}
	return nil
}

// IDs returns the external ids of all indexed vectors in insertion order.
// Callers that use ids as indexes into their own state (e.g. the matcher's
// tuple table) can validate a loaded index against it.
func (ix *Index) IDs() []int {
	out := make([]int, len(ix.ids))
	copy(out, ix.ids)
	return out
}
