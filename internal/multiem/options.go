// Package multiem implements the paper's primary contribution: the
// three-phase unsupervised multi-table entity-matching pipeline of
//
//	MultiEM: Efficient and Effective Unsupervised Multi-Table Entity
//	Matching (ICDE 2024)
//
// Phase I (enhanced entity representation, §III-B) serializes entities over
// an automatically selected attribute subset and embeds them; Phase II
// (table-wise hierarchical merging, §III-C) merges tables pairwise in a
// binary-tree schedule using mutual top-K ANN search and union-find
// transitivity; Phase III (density-based pruning, §III-D) removes outlier
// entities from candidate tuples. Both merging and pruning have parallel
// variants (§III-E).
package multiem

import (
	"fmt"
	"math"

	"repro/internal/embed"
	"repro/internal/hnsw"
	"repro/internal/par"
)

// ANNBackend selects how two-table merging finds its mutual top-K pairs.
type ANNBackend int

const (
	// BackendAuto plans per table pair from the two table sizes: the exact
	// blocked join where one pass over |a|·|b| distances is cheaper than
	// building and querying two HNSW graphs, HNSW above that (the cost model
	// and its measured constants are in merge.go).
	BackendAuto ANNBackend = iota
	// BackendHNSW forces the paper's choice (§IV-A uses hnswlib) at every
	// size; the approximate leg of the ANN ablation.
	BackendHNSW
	// BackendBrute forces the exact blocked join at every size; the exact
	// leg of the ablation and the reference tests compare against.
	BackendBrute
)

// Options holds every hyperparameter of the pipeline. The zero value is not
// usable; start from DefaultOptions.
type Options struct {
	// K is the mutual top-K width of Eq. 1. The paper fixes k=1 (§IV-A).
	K int
	// M is the distance threshold m of Eq. 1 on cosine distance; pairs
	// farther than M are never merged. Figure 6c sweeps it.
	M float32
	// Gamma is the attribute-selection threshold γ: an attribute is kept
	// when shuffling it moves embeddings enough that the mean cosine
	// similarity between original and shuffled embeddings is <= Gamma.
	// Grid {0.8, 0.9}.
	//
	// Note: the paper's Algorithm 1 pseudocode writes "if sim >= γ then
	// select", but its own Example 1 (id keeps sim 0.91 and is dropped;
	// album drops sim to 0.79 and is kept — Table VII) requires the
	// opposite comparison, so this implementation selects significant
	// attributes with sim <= γ.
	Gamma float32
	// SampleRatio is r of Algorithm 1: the fraction of rows sampled when
	// computing attribute significance. 0.2 default, 0.05 for very large
	// datasets (§IV-A).
	SampleRatio float64
	// Eps is the pruning radius ε (euclidean, Defs. 3-5). Grid {0.8, 1.0}.
	Eps float32
	// MinPts is the core-entity density threshold; the paper fixes 2.
	MinPts int
	// Encoder embeds serialized entities. Defaults to the hashed n-gram
	// encoder standing in for Sentence-BERT.
	Encoder embed.Encoder
	// Backend picks the two-table join: planned per table pair (default),
	// or forced to HNSW or to the exact join.
	Backend ANNBackend
	// HNSW configures merging's and a built matcher's HNSW indexes; its
	// EfSearch is also any matcher's query beam, split across shards.
	HNSW hnsw.Config
	// Parallel enables parallel merging of table pairs and parallel
	// pruning (MultiEM(parallel), §III-E). Phase I is not governed by it:
	// attribute selection (one sampled row per par.For task) and
	// representation (embed.BatchStore) always encode on all cores, with
	// or without Parallel, whatever Workers says.
	Parallel bool
	// Workers bounds the goroutines of merging and pruning when Parallel is
	// set (par.Workers: <= 0 means GOMAXPROCS); without it they run on one.
	Workers int
	// Seed drives the random merge order of Algorithm 2.
	Seed int64
	// DisableAttrSelect turns off Phase I attribute selection
	// ("MultiEM w/o EER" ablation): all attributes are used.
	DisableAttrSelect bool
	// DisablePruning turns off Phase III ("MultiEM w/o DP" ablation).
	DisablePruning bool
	// Shards is the number of hash shards the online Matcher splits its
	// state across; ingest parallelism and write-lock granularity scale
	// with it. <= 0 uses GOMAXPROCS. Ignored by LoadMatcher, which restores
	// the shard count the file was saved with.
	Shards int

	// tupleChunkOverride, when nonzero, sets the Matcher's tuple-table chunk
	// size to 1<<(tupleChunkOverride-1) rows instead of the production
	// default. Chunking is pure memory layout — serving results and Save
	// bytes are identical for every value — which the in-package layout-
	// independence property tests pin by sweeping it from one-row chunks to
	// a whole-table chunk.
	tupleChunkOverride int
}

// DefaultOptions mirrors §IV-A: k=1, MinPts=2, r=0.2, mid-grid m and γ and
// ε. The distances are not options: merging, its HNSW indexes and the matcher
// use vector.CosineUnitDist (over the encoder's unit-norm embeddings and
// normalized centroids), pruning uses vector.EuclideanDist.
func DefaultOptions() Options {
	return Options{
		K:           1,
		M:           0.35,
		Gamma:       0.9,
		SampleRatio: 0.2,
		Eps:         1.0,
		MinPts:      2,
		Encoder:     embed.NewHashEncoder(),
		Backend:     BackendAuto,
		HNSW:        hnsw.Config{M: 12, EfConstruction: 64, EfSearch: 64, Seed: 1},
		Seed:        0,
	}
}

// Validate rejects unusable option combinations.
func (o *Options) Validate() error {
	if o.K <= 0 {
		return fmt.Errorf("multiem: K must be positive, got %d", o.K)
	}
	if o.M < 0 || o.M > 2 {
		return fmt.Errorf("multiem: M must be a cosine distance in [0,2], got %v", o.M)
	}
	if o.Gamma <= 0 || o.Gamma > 1 {
		return fmt.Errorf("multiem: Gamma must be in (0,1], got %v", o.Gamma)
	}
	if o.SampleRatio <= 0 || o.SampleRatio > 1 {
		return fmt.Errorf("multiem: SampleRatio must be in (0,1], got %v", o.SampleRatio)
	}
	if o.Eps <= 0 {
		return fmt.Errorf("multiem: Eps must be positive, got %v", o.Eps)
	}
	if o.MinPts <= 0 {
		return fmt.Errorf("multiem: MinPts must be positive, got %d", o.MinPts)
	}
	if o.Encoder == nil {
		return fmt.Errorf("multiem: Encoder is required")
	}
	if o.Shards > maxSaneShards {
		return fmt.Errorf("multiem: Shards must be at most %d, got %d", maxSaneShards, o.Shards)
	}
	return nil
}

// workers is the goroutine budget of the two phases Parallel governs,
// merging and pruning: sequential MultiEM runs them on one goroutine, the
// parallel variant on Workers (all cores when <= 0).
func (o *Options) workers() int {
	if !o.Parallel {
		return 1
	}
	return par.Workers(math.MaxInt, o.Workers)
}
