package baselines

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/table"
)

// AutoFJ is the unsupervised fuzzy-join baseline after Auto-FuzzyJoin
// (SIGMOD 2021). Its key idea is automatic threshold calibration without
// labels: treating one table as a reference, it estimates the precision of
// a candidate distance threshold from the rate at which *unrelated* record
// pairs fall under it (a null model built from random cross pairs), and
// picks the loosest threshold whose estimated precision still meets the
// target. That reproduces AutoFJ's signature behaviour in the paper's
// Table IV: high precision, modest recall.
type AutoFJ struct {
	// TargetPrecision is the calibration goal (AutoFJ default 0.9).
	TargetPrecision float64
	// BlockK bounds candidates per entity.
	BlockK int
	// NullSamples is the number of random pairs in the null model.
	NullSamples int
	// Seed fixes sampling.
	Seed int64
}

// NewAutoFJ returns the baseline with the paper-default target precision.
func NewAutoFJ() *AutoFJ {
	return &AutoFJ{TargetPrecision: 0.9, BlockK: 5, NullSamples: 2000, Seed: 1}
}

// Name implements TwoTableMatcher.
func (a *AutoFJ) Name() string { return "AutoFJ" }

// MatchPair implements TwoTableMatcher.
func (a *AutoFJ) MatchPair(ctx *Context, ta, tb *table.Table) []IDPair {
	if ta.Len() == 0 || tb.Len() == 0 {
		return nil
	}
	cands := BlockTopK(ctx, ta, tb, a.BlockK)
	if len(cands) == 0 {
		return nil
	}
	type scored struct {
		p IDPair
		d float64
	}
	ss := make([]scored, len(cands))
	for i, p := range cands {
		ss[i] = scored{p, float64(cosDist(ctx.Vec(p.Lo), ctx.Vec(p.Hi)))}
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].d < ss[j].d })

	// Null model: distance distribution of random cross pairs, assumed to
	// be non-matches. nullCDF(d) estimates the probability a random pair
	// scores below d.
	nullDists := a.nullModel(ctx, ta, tb)
	nullBelow := func(d float64) float64 {
		lo, hi := 0, len(nullDists)
		for lo < hi {
			mid := (lo + hi) / 2
			if nullDists[mid] <= d {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return float64(lo) / float64(len(nullDists))
	}

	// Expected false positives among accepted pairs if we cut at ss[i].d:
	// every candidate is one trial against the null; precision estimate is
	// 1 - E[FP]/accepted. Scan for the largest prefix meeting the target.
	nRef := float64(ta.Len() * tb.Len())
	best := 0
	for i := range ss {
		accepted := float64(i + 1)
		expFP := nullBelow(ss[i].d) * nRef
		if expFP > accepted {
			expFP = accepted
		}
		prec := 1 - expFP/accepted
		if prec >= a.TargetPrecision {
			best = i + 1
		}
	}
	out := make([]IDPair, 0, best)
	for _, s := range ss[:best] {
		out = append(out, s.p)
	}
	return out
}

func (a *AutoFJ) nullModel(ctx *Context, ta, tb *table.Table) []float64 {
	rng := rand.New(rand.NewSource(a.Seed))
	n := a.NullSamples
	dists := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		ea := ta.Entities[rng.Intn(ta.Len())]
		eb := tb.Entities[rng.Intn(tb.Len())]
		dists = append(dists, float64(cosDist(ctx.Vec(ea.ID), ctx.Vec(eb.ID))))
	}
	sort.Float64s(dists)
	return dists
}

// cosDist is 1 − a·b / (‖a‖‖b‖), 1 when either vector is zero, summed in one
// portable pass (two lanes each for a·b, a·a and b·b) on every kernel path.
// AutoFJ calibrates its cut on these exact values: 1 − Dot differs from them
// in the last bit, which reorders near-tied candidates at the precision cut
// and moves its Table IV F1.
func cosDist(a, b []float32) float32 {
	b = b[:len(a)]
	var d0, d1, x0, x1, y0, y1 float32
	n := len(a) &^ 1
	for i := 0; i < n; i += 2 {
		d0 += a[i] * b[i]
		d1 += a[i+1] * b[i+1]
		x0 += a[i] * a[i]
		x1 += a[i+1] * a[i+1]
		y0 += b[i] * b[i]
		y1 += b[i+1] * b[i+1]
	}
	dot, na, nb := d0+d1, x0+x1, y0+y1
	for i := n; i < len(a); i++ {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 1
	}
	return 1 - dot/float32(math.Sqrt(float64(na))*math.Sqrt(float64(nb)))
}

var _ TwoTableMatcher = (*AutoFJ)(nil)
