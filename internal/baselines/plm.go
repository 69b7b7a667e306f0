package baselines

import (
	"math"
	"math/rand"

	"repro/internal/ann"
	"repro/internal/hnsw"
	"repro/internal/par"
	"repro/internal/table"
	"repro/internal/vector"
)

// LabeledPair is a training example for supervised matchers.
type LabeledPair struct {
	A, B  int
	Match bool
}

// MakeSplit samples the paper's supervised setting (§IV-A): frac of the
// ground-truth pairs as positives plus negRatio sampled mismatched pairs
// per positive. Deterministic under seed.
func MakeSplit(d *table.Dataset, frac float64, negRatio int, seed int64) []LabeledPair {
	rng := rand.New(rand.NewSource(seed))
	var positives []IDPair
	for _, tuple := range d.Truth {
		for i := 0; i < len(tuple); i++ {
			for j := i + 1; j < len(tuple); j++ {
				positives = append(positives, MkPair(tuple[i], tuple[j]))
			}
		}
	}
	rng.Shuffle(len(positives), func(i, j int) { positives[i], positives[j] = positives[j], positives[i] })
	n := int(float64(len(positives)) * frac)
	if n < 1 && len(positives) > 0 {
		n = 1
	}
	truthSet := make(map[IDPair]bool, len(positives))
	for _, p := range positives {
		truthSet[p] = true
	}
	var out []LabeledPair
	for _, p := range positives[:n] {
		out = append(out, LabeledPair{A: p.Lo, B: p.Hi, Match: true})
	}
	ents := d.AllEntities()
	for i := 0; i < n*negRatio; i++ {
		a := ents[rng.Intn(len(ents))].ID
		b := ents[rng.Intn(len(ents))].ID
		if a == b || truthSet[MkPair(a, b)] {
			continue
		}
		out = append(out, LabeledPair{A: a, B: b, Match: false})
	}
	return out
}

// PLMVariant distinguishes the two simulated language-model matchers.
type PLMVariant int

const (
	// VariantDitto mirrors Ditto: strong with enough labels, base
	// feature set.
	VariantDitto PLMVariant = iota
	// VariantPromptEM mirrors PromptEM: adds feature crosses (the
	// "prompt template" enrichment), better in low-resource settings,
	// slower.
	VariantPromptEM
)

// PLMMatcher is the supervised baseline standing in for Ditto/PromptEM: a
// logistic-regression classifier over embedding- and token-level similarity
// features, trained on a labeled split, applied to ANN-blocked candidate
// pairs of each table pair.
type PLMMatcher struct {
	Variant PLMVariant
	// BlockK is the number of nearest neighbours blocked per entity.
	BlockK int
	// Epochs of SGD.
	Epochs int
	// LR is the SGD learning rate.
	LR float64
	// Threshold on the predicted probability.
	Threshold float64
	// Seed fixes SGD shuffling.
	Seed int64

	w []float64 // learned weights, bias last
}

// NewPLMMatcher returns a matcher with sensible defaults.
func NewPLMMatcher(v PLMVariant) *PLMMatcher {
	m := &PLMMatcher{Variant: v, BlockK: 10, Epochs: 30, LR: 0.5, Threshold: 0.5, Seed: 1}
	if v == VariantPromptEM {
		m.Epochs = 60 // prompt-tuning's extra optimization cost
	}
	return m
}

// Name implements TwoTableMatcher.
func (m *PLMMatcher) Name() string {
	if m.Variant == VariantPromptEM {
		return "PromptEM"
	}
	return "Ditto"
}

// features builds the pairwise feature vector.
func (m *PLMMatcher) features(ctx *Context, a, b int) []float64 {
	cos := float64(vector.Dot(ctx.Vec(a), ctx.Vec(b))) // unit-norm embeddings
	jac := ctx.Jaccard(a, b)
	lr := ctx.LengthRatio(a, b)
	pre := ctx.PrefixSim(a, b)
	base := []float64{cos, jac, lr, pre}
	if m.Variant == VariantPromptEM {
		// Feature crosses approximate the richer interactions a
		// prompt-tuned model captures.
		base = append(base, cos*jac, cos*pre, jac*lr)
	}
	return base
}

// Train fits the logistic regression on the labeled split.
func (m *PLMMatcher) Train(ctx *Context, split []LabeledPair) {
	if len(split) == 0 {
		return
	}
	dim := len(m.features(ctx, split[0].A, split[0].B)) + 1
	m.w = make([]float64, dim)
	rng := rand.New(rand.NewSource(m.Seed))
	idx := rng.Perm(len(split))
	for epoch := 0; epoch < m.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			ex := split[i]
			f := m.features(ctx, ex.A, ex.B)
			p := m.predictFeatures(f)
			y := 0.0
			if ex.Match {
				y = 1
			}
			g := p - y
			for j, fj := range f {
				m.w[j] -= m.LR * g * fj
			}
			m.w[dim-1] -= m.LR * g // bias
		}
	}
}

func (m *PLMMatcher) predictFeatures(f []float64) float64 {
	if m.w == nil {
		return 0
	}
	z := m.w[len(m.w)-1]
	for j, fj := range f {
		z += m.w[j] * fj
	}
	return 1 / (1 + math.Exp(-z))
}

// Prob returns the match probability for one pair.
func (m *PLMMatcher) Prob(ctx *Context, a, b int) float64 {
	return m.predictFeatures(m.features(ctx, a, b))
}

// MatchPair implements TwoTableMatcher: block candidates by top-K cosine
// neighbours, then classify each candidate pair.
func (m *PLMMatcher) MatchPair(ctx *Context, a, b *table.Table) []IDPair {
	cands := BlockTopK(ctx, a, b, m.BlockK)
	var out []IDPair
	for _, p := range cands {
		if m.Prob(ctx, p.Lo, p.Hi) >= m.Threshold {
			out = append(out, p)
		}
	}
	return out
}

// bruteBlockLimit is the table size above which blocking switches from
// exact scans to an HNSW index (real EM systems block with indexes too).
const bruteBlockLimit = 20_000

// BlockTopK generates candidate pairs between two tables: each entity of
// the smaller side is paired with its k nearest neighbours on the larger
// side (cosine). An exact scan for small tables, HNSW beyond bruteBlockLimit.
// Shared by several baselines.
func BlockTopK(ctx *Context, a, b *table.Table, k int) []IDPair {
	if a.Len() == 0 || b.Len() == 0 || k <= 0 {
		return nil
	}
	// Query from the smaller side for speed.
	small, large := a, b
	if small.Len() > large.Len() {
		small, large = large, small
	}
	rows := vector.NewSparseRows(len(ctx.Vec(large.Entities[0].ID)))
	for _, e := range large.Entities {
		rows.Append(ctx.Vec(e.ID))
	}
	search := func(q []float32) []vector.Neighbor { return scanTopK(q, rows, k) }
	if large.Len() > bruteBlockLimit {
		ix := ann.HNSWOverRows(rows, hnsw.Config{EfConstruction: 100})
		search = func(q []float32) []vector.Neighbor { return ix.Search(q, k, 0) }
	}
	queries := make([][]vector.Neighbor, small.Len())
	par.For(small.Len(), 0, func(_, i int) {
		queries[i] = search(ctx.Vec(small.Entities[i].ID))
	})
	var out []IDPair
	for i, e := range small.Entities {
		for _, n := range queries[i] {
			out = append(out, MkPair(e.ID, large.Entities[n.ID].ID))
		}
	}
	return out
}

// scanTopK returns the k rows of s nearest to q under CosineUnitDist, ranked
// by (distance, row), scoring a fixed-size block of rows per gather call.
func scanTopK(q []float32, s *vector.SparseRows, k int) []vector.Neighbor {
	tk := vector.NewTopK(k)
	var idxs [256]int32
	var dists [256]float32
	for start := 0; start < s.Len(); start += len(idxs) {
		n := min(len(idxs), s.Len()-start)
		for j := range idxs[:n] {
			idxs[j] = int32(start + j)
		}
		s.CosineUnitGather(q, idxs[:n], dists[:n])
		for j, d := range dists[:n] {
			tk.Push(start+j, d)
		}
	}
	return tk.ResultsAppend(nil)
}

var _ TwoTableMatcher = (*PLMMatcher)(nil)
