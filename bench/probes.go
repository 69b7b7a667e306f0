package main

import (
	"bytes"
	"math/rand"
	"path/filepath"

	"repro"
	"repro/internal/hnsw"
	"repro/internal/table"
	"repro/internal/vector"
	"repro/internal/wal"
)

// Probe sizes. Calls shorter than a few microseconds are timed in chunks,
// one span per chunk, so the span's own cost (bench.span_cost_ns) stays
// under one percent of what it measures.
const (
	probeRecords   = 2000 // records embedded, serialized, indexed
	probeChunk     = 256  // short calls per span
	probeBatchRows = 32   // rows per distance-kernel call
	probeSearches  = 1000
	probeClones    = 50
	probeAppends   = 200
	probeSyncs     = 30
	probeDurable   = 50 // write batches ingested under fsync=always
)

// layerProbes times each layer's public functions from outside, on the
// workload's own records, and reports the median per call. They say what a
// layer costs alone; the scraped stage metrics say what it costs in place.
func (r *run) layerProbes(st *state) error {
	tr := r.tracer
	opt := matcherOptions()
	med := func(layer, name string, per float64) (float64, int) {
		d := tr.durations(layer, name)
		return median(d) / per, len(d)
	}

	// datagen: the run's whole input, generated once more.
	var err error
	tr.span(0, "datagen", "newCorpus", func() { _, err = newCorpus(r.sp, r.seed) })
	if err != nil {
		return err
	}
	v, _ := med("datagen", "newCorpus", 1e9)
	r.set("datagen.generate_s", v, 1)

	recs := st.c.prepop[:min(probeRecords, len(st.c.prepop))]
	selected := st.selected

	// table: serialization of a record over the selected attributes.
	ents := make([]*table.Entity, len(recs))
	for i, rec := range recs {
		ents[i] = &table.Entity{ID: i, Values: rec.values}
	}
	texts := make([]string, len(ents))
	for lo := 0; lo < len(ents); lo += probeChunk {
		hi := min(lo+probeChunk, len(ents))
		tr.span(0, "table", "Serialize", func() {
			for i := lo; i < hi; i++ {
				texts[i] = table.Serialize(ents[i], selected)
			}
		})
	}
	v, n := med("table", "Serialize", probeChunk)
	r.set("table.serialize_ns", v, n*probeChunk)

	// embed: one record at a time, as Match and the ingest decide stage do.
	vecs := make([][]float32, len(texts))
	for i, text := range texts {
		tr.span(0, "embed", "Encode", func() { vecs[i] = opt.Encoder.Encode(text) })
	}
	v, n = med("embed", "Encode", 1e3)
	r.set("embed.encode_us", v, n)

	// vector: one query against 32 rows of an arena as large as the state's
	// index, contiguous and gathered, so the gather pays the cache misses a
	// graph walk pays.
	dim := opt.Encoder.Dim()
	arenaRows := max(st.indexSize, probeBatchRows)
	arena := vector.NewStoreWithCap(dim, arenaRows)
	for i := 0; i < arenaRows; i++ {
		arena.Append(vecs[i%len(vecs)])
	}
	rng := rand.New(rand.NewSource(r.seed))
	out := make([]float32, probeBatchRows)
	idxs := make([]int32, probeBatchRows)
	raw := arena.Raw()
	for c := 0; c < 40; c++ {
		tr.span(0, "vector", "DotBatch", func() {
			for i := 0; i < probeChunk; i++ {
				off := rng.Intn(arenaRows-probeBatchRows+1) * dim
				vector.DotBatch(vecs[i%len(vecs)], raw[off:], dim, out)
			}
		})
		tr.span(0, "vector", "DotGather", func() {
			for i := 0; i < probeChunk; i++ {
				for j := range idxs {
					idxs[j] = int32(rng.Intn(arenaRows))
				}
				vector.DotGather(vecs[i%len(vecs)], raw, dim, idxs, out)
			}
		})
	}
	v, n = med("vector", "DotBatch", probeChunk*probeBatchRows)
	r.set("vector.dot_batch_ns_per_row", v, n*probeChunk)
	v, n = med("vector", "DotGather", probeChunk*probeBatchRows)
	r.set("vector.dot_gather_ns_per_row", v, n*probeChunk)

	// hnsw: build, search, copy-on-write clone after a write, save, load.
	ix := hnsw.New(dim, opt.HNSW)
	for i, vec := range vecs {
		tr.span(0, "hnsw", "Add", func() { err = ix.Add(i, vec) })
		if err != nil {
			return err
		}
	}
	for i := 0; i < probeSearches; i++ {
		tr.span(0, "hnsw", "Search", func() { ix.Search(vecs[(i*7)%len(vecs)], matchK, 0) })
	}
	for i := 0; i < probeClones; i++ {
		if err := ix.Add(len(vecs)+i, vecs[i%len(vecs)]); err != nil {
			return err
		}
		tr.span(0, "hnsw", "Clone", func() { ix.Clone() })
	}
	var buf bytes.Buffer
	tr.span(0, "hnsw", "Save", func() { err = ix.Save(&buf) })
	if err != nil {
		return err
	}
	mib := float64(buf.Len()) / (1 << 20)
	tr.span(0, "hnsw", "Load", func() { _, err = hnsw.Load(&buf) })
	if err != nil {
		return err
	}
	v, n = med("hnsw", "Add", 1e3)
	r.set("hnsw.add_us", v, n)
	v, n = med("hnsw", "Search", 1e3)
	r.set("hnsw.search_us", v, n)
	v, n = med("hnsw", "Clone", 1e3)
	r.set("hnsw.clone_us", v, n)
	v, _ = med("hnsw", "Save", 1e9)
	r.set("hnsw.save_mb_per_s", mib/v, 1)
	v, _ = med("hnsw", "Load", 1e9)
	r.set("hnsw.load_mb_per_s", mib/v, 1)

	// wal: append and fsync one write batch's worth of bytes, then replay.
	// The fsync time is this sandbox's disk, which is why the gated
	// workloads never wait on it; the flush counts are what carries over.
	payload := st.c.writes[0].body
	log, err := wal.Open(filepath.Join(r.dir, "probe-wal"), wal.Options{})
	if err != nil {
		return err
	}
	for i := 0; i < probeAppends; i++ {
		tr.span(0, "wal", "Append", func() { err = log.Append(payload) })
		if err != nil {
			return err
		}
		if i < probeSyncs {
			tr.span(0, "wal", "Sync", func() { err = log.Sync() })
			if err != nil {
				return err
			}
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	if log, err = wal.Open(filepath.Join(r.dir, "probe-wal"), wal.Options{}); err != nil {
		return err
	}
	replayed := 0
	tr.span(0, "wal", "Replay", func() {
		err = log.Replay(func(p []byte) error { replayed += len(p); return nil })
	})
	if err != nil {
		return err
	}
	if err := log.Close(); err != nil {
		return err
	}
	r.check(replayed == probeAppends*len(payload), "wal probe replayed %d bytes of %d appended", replayed, probeAppends*len(payload))
	v, n = med("wal", "Append", 1e3)
	r.set("wal.append_us", v, n)
	v, n = med("wal", "Sync", 1e3)
	r.set("wal.sync_us", v, n)
	v, _ = med("wal", "Replay", 1e9)
	r.set("wal.replay_mb_per_s", float64(replayed)/(1<<20)/v, 1)

	if err := r.durableProbe(st); err != nil {
		return err
	}
	r.logf("probes: encode %.1f us, dot batch %.1f / gather %.1f ns/row, hnsw add %.0f search %.0f clone %.1f us, wal append %.1f sync %.0f us",
		r.metrics["embed.encode_us"].Value, r.metrics["vector.dot_batch_ns_per_row"].Value, r.metrics["vector.dot_gather_ns_per_row"].Value,
		r.metrics["hnsw.add_us"].Value, r.metrics["hnsw.search_us"].Value, r.metrics["hnsw.clone_us"].Value,
		r.metrics["wal.append_us"].Value, r.metrics["wal.sync_us"].Value)
	return nil
}

// durableProbe ingests the workload's first write batches into a copy of the
// saved state under fsync=always and reads the matcher's own WAL counters.
// The gated runs never wait on an fsync — this sandbox's disk answers one in
// anything from 0.3 to 40 ms, minute by minute — so this is where the
// durable path's cost shows: as counts per batch, which repeat exactly, and
// as a time that is the sandbox's.
func (r *run) durableProbe(st *state) error {
	opt := matcherOptions()
	cfg := repro.WALConfig{Dir: filepath.Join(r.dir, "probe-durable"), Fsync: "always"}
	m, err := repro.RecoverMatcher(cfg, opt, func() (*repro.Matcher, error) { return repro.LoadMatcherFile(st.path, opt) })
	if err != nil {
		return err
	}
	batches := st.c.writes[:min(probeDurable, len(st.c.writes))]
	for i := range batches {
		rows := batches[i].rows()
		r.tracer.span(0, "multiem", "AddRecords(always)", func() { _, err = m.AddRecords(rows) })
		if err != nil {
			return err
		}
	}
	ws := m.WALStats()
	syncP50 := m.WALSyncDurations().Quantile(0.5)
	if err := m.CloseWAL(); err != nil {
		return err
	}
	n := float64(len(batches))
	r.set("wal.appends_per_batch", float64(ws.Appends)/n, len(batches))
	r.set("wal.syncs_per_batch", float64(ws.Syncs)/n, len(batches))
	r.set("wal.fsync_p50_us", float64(syncP50.Microseconds()), int(ws.Syncs))
	perRow := r.tracer.durations("multiem", "AddRecords(always)")
	for i := range perRow {
		perRow[i] /= 1e3 * float64(r.sp.batchRows)
	}
	r.set("multiem.add_always_us_per_row", median(perRow), len(perRow))
	return nil
}
