// Package baselines implements every method the paper compares MultiEM
// against (§IV-A), plus the pairwise/chain extensions (Fig. 2a/2c) and the
// pairs-to-tuples conversion (Algorithm 5) needed to evaluate two-table
// matchers in the multi-table setting:
//
//   - PLMMatcher: a trainable pairwise classifier standing in for the
//     fine-tuned language-model matchers Ditto and PromptEM;
//   - AutoFJ: unsupervised fuzzy join with automatic threshold calibration
//     for a target precision, after Auto-FuzzyJoin (SIGMOD 2021);
//   - ALMSER: similarity-graph multi-source matcher with committee-based
//     active learning, after ALMSER-GB (ISWC 2021);
//   - MSCDHAC: source-aware hierarchical agglomerative clustering, after
//     MSCD-HAC (KEOD 2021).
//
// All baselines share a Context holding full-serialization embeddings (none
// of them has MultiEM's attribute selection).
package baselines

import (
	"fmt"
	"strings"

	"repro/internal/embed"
	"repro/internal/table"
)

// Context precomputes what every baseline needs: the dataset, the entity
// list, and one embedding per entity over the full serialization.
type Context struct {
	Dataset *table.Dataset
	Ents    []*table.Entity
	// Pos maps entity ID to its index in Ents / Vecs.
	Pos map[int]int
	// Vecs[i] is the embedding of Ents[i].
	Vecs [][]float32
	// Texts[i] is the serialized form of Ents[i] (used by token-level
	// features).
	Texts []string
	// Tokens[i] is the tokenized form of Texts[i].
	Tokens [][]string
}

// NewContext builds the shared baseline context.
func NewContext(d *table.Dataset, enc embed.Encoder) (*Context, error) {
	if len(d.Tables) == 0 {
		return nil, fmt.Errorf("baselines: dataset %q has no tables", d.Name)
	}
	ents := d.AllEntities()
	texts := make([]string, len(ents))
	for i, e := range ents {
		texts[i] = table.Serialize(e, nil)
	}
	vecs := enc.EncodeBatch(texts)
	pos := make(map[int]int, len(ents))
	toks := make([][]string, len(ents))
	for i, e := range ents {
		pos[e.ID] = i
		toks[i] = embed.Tokenize(texts[i])
	}
	return &Context{Dataset: d, Ents: ents, Pos: pos, Vecs: vecs, Texts: texts, Tokens: toks}, nil
}

// Vec returns the embedding for an entity ID.
func (c *Context) Vec(id int) []float32 { return c.Vecs[c.Pos[id]] }

// TokensOf returns the token list for an entity ID.
func (c *Context) TokensOf(id int) []string { return c.Tokens[c.Pos[id]] }

// Jaccard computes token-set Jaccard similarity between two entities.
func (c *Context) Jaccard(a, b int) float64 {
	ta, tb := c.TokensOf(a), c.TokensOf(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	set := make(map[string]bool, len(ta))
	for _, t := range ta {
		set[t] = true
	}
	inter := 0
	seen := make(map[string]bool, len(tb))
	for _, t := range tb {
		if seen[t] {
			continue
		}
		seen[t] = true
		if set[t] {
			inter++
		}
	}
	union := len(set) + len(seen) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// LengthRatio is min(len)/max(len) over serialized texts.
func (c *Context) LengthRatio(a, b int) float64 {
	la := len(c.Texts[c.Pos[a]])
	lb := len(c.Texts[c.Pos[b]])
	if la > lb {
		la, lb = lb, la
	}
	if lb == 0 {
		return 1
	}
	return float64(la) / float64(lb)
}

// PrefixSim reports whether the first tokens agree — a cheap high-precision
// rule feature.
func (c *Context) PrefixSim(a, b int) float64 {
	ta, tb := c.TokensOf(a), c.TokensOf(b)
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	if ta[0] == tb[0] {
		return 1
	}
	if strings.HasPrefix(ta[0], tb[0]) || strings.HasPrefix(tb[0], ta[0]) {
		return 0.5
	}
	return 0
}

// IDPair is an unordered entity-ID pair with a canonical (lo <= hi) order.
type IDPair struct{ Lo, Hi int }

// MkPair canonicalizes a pair.
func MkPair(a, b int) IDPair {
	if a > b {
		a, b = b, a
	}
	return IDPair{a, b}
}
