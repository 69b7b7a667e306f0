// Package repro is the public API of this reproduction of
//
//	MultiEM: Efficient and Effective Unsupervised Multi-Table Entity
//	Matching (Zeng et al., ICDE 2024; arXiv:2308.01927)
//
// It exposes the complete pipeline — enhanced entity representation with
// automated attribute selection, table-wise hierarchical merging over a
// from-scratch HNSW index, and density-based pruning — plus dataset loading,
// synthetic benchmark generation, and evaluation metrics.
//
// Quickstart:
//
//	d, _ := repro.GenerateDataset("Music-20", 0.1, 1)
//	res, _ := repro.Match(d, repro.DefaultOptions())
//	rep := repro.Evaluate(res.Tuples, d.Truth)
//	fmt.Printf("F1 %.3f  pair-F1 %.3f\n", rep.Tuple.F1, rep.Pair.F1)
//
// See examples/ for runnable programs and DESIGN.md for the architecture.
package repro

import (
	"io"
	"os"

	"repro/internal/datagen"
	"repro/internal/embed"
	"repro/internal/eval"
	"repro/internal/multiem"
	"repro/internal/table"
	"repro/internal/wal"
)

// Core data model.
type (
	// Dataset is a set of relational tables with shared schema plus
	// optional ground truth.
	Dataset = table.Dataset
	// Table is one relational source table.
	Table = table.Table
	// Entity is one record.
	Entity = table.Entity
	// Schema is the shared attribute list.
	Schema = table.Schema
)

// Pipeline configuration and results.
type (
	// Options holds the MultiEM hyperparameters (§IV-A defaults via
	// DefaultOptions).
	Options = multiem.Options
	// Result is the pipeline output: predicted tuples, selected
	// attributes, and per-phase timings.
	Result = multiem.Result
	// AttrScore is a per-attribute significance diagnostic (Table VII).
	AttrScore = multiem.AttrScore
)

// Online matching.
type (
	// Matcher serves online matching over a completed pipeline run: Match
	// finds candidate tuples for a record, AddRecords ingests new records
	// incrementally, Save/LoadMatcher persist the whole state.
	Matcher = multiem.Matcher
	// Candidate is one online-match result.
	Candidate = multiem.Candidate
	// AddResult reports how one ingested record was placed.
	AddResult = multiem.AddResult
	// MatcherStats summarizes a Matcher's state across all shards.
	MatcherStats = multiem.MatcherStats
	// ShardStats describes one shard's share of the matcher state.
	ShardStats = multiem.ShardStats
	// TupleCursor streams tuples out of one pinned epoch view without
	// materializing the full copy Tuples returns; create one with
	// Matcher.TupleCursor.
	TupleCursor = multiem.TupleCursor
	// ArityError reports a record whose width does not match the schema,
	// with the offending batch row index; HTTP layers map it to a client
	// error.
	ArityError = multiem.ArityError
)

// Durability: write-ahead logging, background snapshots, and
// crash recovery for the online matcher.
type (
	// WALConfig configures the durability directory, fsync policy
	// ("always", "interval", "off"), and snapshot cadence for
	// RecoverMatcher.
	WALConfig = multiem.WALConfig
	// WALStats reports the attached WAL's size and activity (segments,
	// bytes, sequence numbers, snapshots).
	WALStats = multiem.WALStats
)

// ErrReadOnly is returned by AddRecords on a replication follower: writes
// must go to the primary until the follower is promoted.
var ErrReadOnly = multiem.ErrReadOnly

// ErrWALLayout is returned by RecoverMatcher for a durability directory whose
// logs an earlier version wrote (per-shard logs, or batch records without
// decisions); its message carries the upgrade procedure.
var ErrWALLayout = multiem.ErrWALLayout

// ErrLogMismatch is returned by RecoverMatcher when a logged batch does not
// fit the state it is replayed over: the log was written by a matcher with
// another shard count, or over another base state or snapshot. Nothing of the
// batch is applied.
var ErrLogMismatch = multiem.ErrLogMismatch

// ErrCorruptState is wrapped by LoadMatcher, LoadMatcherFile and
// RecoverMatcher (for its newest snapshot) when the bytes are not a
// well-formed matcher file: truncated, a count or reference out of range, or
// sections that contradict each other. Nothing is loaded from such a file.
var ErrCorruptState = multiem.ErrCorruptState

// Evaluation.
type (
	// Report bundles tuple-level metrics and pair-F1.
	Report = eval.Report
	// Metrics is precision/recall/F1 with raw counts.
	Metrics = eval.Metrics
)

// Encoder is the text-embedding interface; NewEncoder returns the default
// hashed n-gram encoder standing in for Sentence-BERT.
type Encoder = embed.Encoder

// NewSchema builds a schema from attribute names.
func NewSchema(attrs ...string) Schema { return table.NewSchema(attrs...) }

// NewTable returns an empty table.
func NewTable(name string, schema Schema) *Table { return table.New(name, schema) }

// DefaultOptions mirrors the paper's §IV-A settings.
func DefaultOptions() Options { return multiem.DefaultOptions() }

// NewEncoder returns the default deterministic entity encoder.
func NewEncoder() Encoder { return embed.NewHashEncoder() }

// Match runs the full MultiEM pipeline on a dataset.
func Match(d *Dataset, opt Options) (*Result, error) { return multiem.Run(d, opt) }

// SelectAttributes runs only Phase I (Algorithm 1), returning per-attribute
// significance scores and the selected schema positions.
func SelectAttributes(d *Dataset, opt Options) ([]AttrScore, []int) {
	return multiem.SelectAttributes(d, opt)
}

// BuildMatcher runs the full pipeline on a dataset and wraps the outcome for
// online serving: incremental ingestion and candidate queries without
// re-running the hierarchy.
func BuildMatcher(d *Dataset, opt Options) (*Matcher, error) {
	return multiem.BuildMatcher(d, opt)
}

// LoadMatcher reads a matcher previously written with Matcher.Save. opt
// supplies the encoder and thresholds, which are not persisted.
func LoadMatcher(r io.Reader, opt Options) (*Matcher, error) {
	return multiem.LoadMatcher(r, opt)
}

// SaveMatcherFile writes the matcher to path atomically and durably
// (wal.WriteFileAtomic), so neither a crash nor a power loss mid-save leaves
// a truncated index behind.
func SaveMatcherFile(m *Matcher, path string) error {
	return wal.WriteFileAtomic(path, m.Save)
}

// RecoverMatcher opens a durable matcher: the latest snapshot in cfg.Dir is
// loaded (or, when there is none, base() builds the starting state), every
// write-ahead-logged batch since is redone from the decisions its record
// holds — checked against the state, ErrLogMismatch when the log was written
// over another base or shard count — so the recovered state is bit-identical
// to the matcher that crashed, and subsequent AddRecords are logged under
// cfg's fsync policy. Call
// Matcher.CloseWAL on shutdown to flush; Matcher.Snapshot (or
// cfg.SnapshotInterval) checkpoints state and truncates the logs.
func RecoverMatcher(cfg WALConfig, opt Options, base func() (*Matcher, error)) (*Matcher, error) {
	return multiem.RecoverMatcher(cfg, opt, base)
}

// LoadMatcherFile reads a matcher from a file written by SaveMatcherFile.
func LoadMatcherFile(path string, opt Options) (*Matcher, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return multiem.LoadMatcher(f, opt)
}

// Evaluate scores predicted tuples against ground truth with both the
// strict tuple metric and pair-F1 (§IV-A).
func Evaluate(pred, truth [][]int) Report { return eval.Evaluate(pred, truth) }

// LoadDataset reads a dataset directory (source-*.csv plus optional
// truth.csv) written by SaveDataset or cmd/datagen.
func LoadDataset(dir string) (*Dataset, error) { return table.LoadDataset(dir) }

// SaveDataset writes a dataset as CSVs into dir.
func SaveDataset(d *Dataset, dir string) error { return table.SaveDataset(d, dir) }

// GenerateDataset synthesizes one of the six benchmark families of Table
// III ("Geo", "Music-20", "Music-200", "Music-2000", "Person", "Shopee") at
// the given scale in (0, 1] with a fixed seed.
func GenerateDataset(name string, scale float64, seed int64) (*Dataset, error) {
	return datagen.GenerateByName(name, scale, seed)
}

// DatasetNames lists the available benchmark families.
func DatasetNames() []string {
	return []string{"Geo", "Music-20", "Music-200", "Music-2000", "Person", "Shopee"}
}
