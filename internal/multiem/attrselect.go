package multiem

import (
	"math/rand"

	"repro/internal/embed"
	"repro/internal/table"
	"repro/internal/vector"
)

// AttrScore is the significance result for one attribute.
type AttrScore struct {
	// Attr is the attribute name.
	Attr string
	// Index is its schema position.
	Index int
	// MeanSim is the mean cosine similarity between original embeddings
	// and embeddings after shuffling this attribute's values across the
	// sampled rows. Low similarity = shuffling changed representations a
	// lot = the attribute matters.
	MeanSim float32
	// Selected reports whether the attribute passed the γ test.
	Selected bool
}

// SelectAttributes implements Algorithm 1 (automated attribute selection):
// concatenate all tables, sample rows with ratio r, embed them, then for
// each attribute shuffle its values across the sample, re-embed, and score
// the attribute by the mean cosine similarity between old and new
// embeddings. Attributes with MeanSim <= γ are selected (see the Options.
// Gamma comment for why the comparison direction differs from the paper's
// pseudocode). If the test would select nothing, the single most significant
// attribute is kept so the pipeline always has a representation.
func SelectAttributes(d *table.Dataset, opt Options) ([]AttrScore, []int) {
	schema := d.Schema()
	all := d.AllEntities()

	// Sample rows (Alg. 1 line 2). Deterministic under opt.Seed.
	const minSample = 50 // so tiny datasets stay meaningful
	n := max(int(float64(len(all))*opt.SampleRatio), minSample)
	if n > len(all) {
		n = len(all)
	}
	rng := rand.New(rand.NewSource(opt.Seed + 101))
	perm := rng.Perm(len(all))[:n]
	sample := make([]*table.Entity, n)
	for i, p := range perm {
		sample[i] = all[p]
	}

	// Initial embeddings over the full schema (Alg. 1 line 3).
	texts := make([]string, n)
	for i, e := range sample {
		texts[i] = table.Serialize(e, nil)
	}
	base := embed.BatchStore(opt.Encoder, texts)

	scores := make([]AttrScore, schema.Len())
	shuffled := make([]string, n)
	column := make([]string, n)
	for j := 0; j < schema.Len(); j++ {
		// Shuffle column j across the sample (Alg. 1 line 7).
		for i, e := range sample {
			column[i] = e.Value(j)
		}
		colRng := rand.New(rand.NewSource(opt.Seed + 997 + int64(j)))
		colRng.Shuffle(n, func(a, b int) { column[a], column[b] = column[b], column[a] })

		// Serialize with the shuffled column and re-embed (line 8).
		for i, e := range sample {
			shuffled[i] = serializeWithOverride(e, j, column[i])
		}
		newEmb := embed.BatchStore(opt.Encoder, shuffled)

		// Mean similarity between old and new embeddings (line 9). The
		// encoder returns unit-norm or zero vectors, so cosine similarity is
		// the dot product (0 against a zero vector).
		var sum float32
		for i := 0; i < n; i++ {
			sum += vector.Dot(base.At(i), newEmb.At(i))
		}
		mean := sum / float32(n)
		scores[j] = AttrScore{
			Attr:     schema.Attrs[j],
			Index:    j,
			MeanSim:  mean,
			Selected: mean <= opt.Gamma,
		}
	}

	var selected []int
	for _, s := range scores {
		if s.Selected {
			selected = append(selected, s.Index)
		}
	}
	if len(selected) == 0 {
		// Keep the most shuffle-sensitive attribute as a fallback.
		best := 0
		for j := 1; j < len(scores); j++ {
			if scores[j].MeanSim < scores[best].MeanSim {
				best = j
			}
		}
		scores[best].Selected = true
		selected = []int{best}
	}
	return scores, selected
}

// serializeWithOverride serializes an entity with attribute j's value
// replaced, keeping all other attributes.
func serializeWithOverride(e *table.Entity, j int, v string) string {
	saved := e.Values[j]
	e.Values[j] = v
	s := table.Serialize(e, nil)
	e.Values[j] = saved
	return s
}
