package multiem

import (
	"math/rand"

	"repro/internal/embed"
	"repro/internal/par"
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
//
// With the default *embed.HashEncoder no row is re-serialized: each row's
// fields are hashed once into an embed.Fields and pooled 1 + |A| times, the
// shuffled-in value hashed alone, which gives the bits re-embedding the
// serialized rows gives. Any other encoder embeds each serialized variant.
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

	// Shuffle each column across the sample (Alg. 1 line 7): row i's value
	// of attribute j becomes shuffled[j*n+i].
	attrs := schema.Len()
	shuffled := make([]string, attrs*n)
	for j := 0; j < attrs; j++ {
		column := shuffled[j*n : (j+1)*n]
		for i, e := range sample {
			column[i] = e.Value(j)
		}
		colRng := rand.New(rand.NewSource(opt.Seed + 997 + int64(j)))
		colRng.Shuffle(n, func(a, b int) { column[a], column[b] = column[b], column[a] })
	}

	// Embed every row as it is (line 3) and with each attribute's shuffled
	// value in place of its own (line 8), one row per task, and keep the
	// pair's cosine similarity (line 9) in sims[j*n+i]. The encoder returns
	// unit-norm or zero vectors, so that is the dot product (0 against a
	// zero vector).
	sims := make([]float32, attrs*n)
	hash, _ := opt.Encoder.(*embed.HashEncoder)
	workers := par.Workers(n, 0)
	scratch := make([]*selectScratch, workers)
	for w := range scratch {
		scratch[w] = newSelectScratch(opt.Encoder.Dim(), hash)
	}
	par.For(n, workers, func(w, i int) {
		s, e := scratch[w], sample[i]
		if hash != nil {
			s.fields.Reset()
			for _, v := range e.Values {
				s.fields.Add(v)
			}
			s.fields.PoolInto(s.base, -1, nil)
			for j := 0; j < attrs; j++ {
				s.swap.Reset()
				s.swap.Add(shuffled[j*n+i])
				s.fields.PoolInto(s.moved, j, s.swap)
				sims[j*n+i] = vector.Dot(s.base, s.moved)
			}
			return
		}
		base := opt.Encoder.Encode(table.Serialize(e, nil))
		s.row.Values = append(s.row.Values[:0], e.Values...)
		for j := 0; j < attrs; j++ {
			s.row.Values[j] = shuffled[j*n+i]
			sims[j*n+i] = vector.Dot(base, opt.Encoder.Encode(table.Serialize(&s.row, nil)))
			s.row.Values[j] = e.Values[j]
		}
	})

	scores := make([]AttrScore, attrs)
	for j := range scores {
		var sum float32
		for _, sim := range sims[j*n : (j+1)*n] {
			sum += sim
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

// selectScratch is one SelectAttributes worker's reusable state.
type selectScratch struct {
	base, moved []float32     // a row's embeddings, as it is and with one value shuffled in
	fields      *embed.Fields // a row's hashed fields (HashEncoder only)
	swap        *embed.Fields // one shuffled-in value, hashed (HashEncoder only)
	row         table.Entity  // a row's values with one shuffled in (other encoders)
}

func newSelectScratch(dim int, hash *embed.HashEncoder) *selectScratch {
	s := &selectScratch{base: make([]float32, dim), moved: make([]float32, dim)}
	if hash != nil {
		s.fields, s.swap = hash.NewFields(), hash.NewFields()
	}
	return s
}
