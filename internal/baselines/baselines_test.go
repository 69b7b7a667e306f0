package baselines

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/embed"
	"repro/internal/eval"
	"repro/internal/table"
	"repro/internal/vector"
)

func testCtx(t *testing.T, name string, scale float64, seed int64) *Context {
	t.Helper()
	d, err := datagen.GenerateByName(name, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(d, embed.NewHashEncoder())
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestNewContextEmptyDataset(t *testing.T) {
	if _, err := NewContext(&table.Dataset{}, embed.NewHashEncoder()); err == nil {
		t.Fatal("empty dataset must error")
	}
}

func TestContextAccessors(t *testing.T) {
	ctx := testCtx(t, "Geo", 0.05, 1)
	e := ctx.Ents[0]
	if len(ctx.Vec(e.ID)) != embed.DefaultDim {
		t.Fatal("Vec must return the embedding")
	}
	if ctx.Jaccard(e.ID, e.ID) != 1 {
		t.Fatal("self Jaccard must be 1")
	}
	if ctx.LengthRatio(e.ID, e.ID) != 1 {
		t.Fatal("self length ratio must be 1")
	}
	if ctx.PrefixSim(e.ID, e.ID) != 1 {
		t.Fatal("self prefix sim must be 1")
	}
}

func TestMkPairCanonical(t *testing.T) {
	if MkPair(5, 2) != MkPair(2, 5) {
		t.Fatal("MkPair must canonicalize")
	}
	if MkPair(2, 5).Lo != 2 {
		t.Fatal("Lo must be the smaller id")
	}
}

func TestPairsToTuplesAlgorithm5(t *testing.T) {
	// Pairs: 1-2, 2-3. Algorithm 5 builds per-entity tuples without
	// transitive closure: entity 1 -> {1,2}; entity 2 -> {1,2,3};
	// entity 3 -> {2,3}.
	pairs := []IDPair{MkPair(1, 2), MkPair(2, 3)}
	tuples := PairsToTuples(pairs)
	want := [][]int{{1, 2}, {1, 2, 3}, {2, 3}}
	if !reflect.DeepEqual(tuples, want) {
		t.Fatalf("tuples = %v, want %v", tuples, want)
	}
}

func TestPairsToTuplesEmpty(t *testing.T) {
	if got := PairsToTuples(nil); len(got) != 0 {
		t.Fatalf("no pairs -> no tuples, got %v", got)
	}
}

func TestPairsToTuplesDeduplicates(t *testing.T) {
	pairs := []IDPair{MkPair(1, 2), MkPair(2, 1)}
	tuples := PairsToTuples(pairs)
	if len(tuples) != 1 {
		t.Fatalf("duplicate pairs must collapse: %v", tuples)
	}
}

// TestBlockTopK holds the exact blocking leg to a reference built here: each
// entity of the smaller table paired with the k rows of the larger one that
// vector.CosineUnitDist ranks first by (distance, row), in that order.
func TestBlockTopK(t *testing.T) {
	ctx := testCtx(t, "Geo", 0.05, 1)
	a, b := ctx.Dataset.Tables[0], ctx.Dataset.Tables[1]
	reference := func(a, b *table.Table, k int) []IDPair {
		small, large := a, b
		if small.Len() > large.Len() {
			small, large = large, small
		}
		var out []IDPair
		for _, e := range small.Entities {
			ranked := make([]vector.Neighbor, large.Len())
			for i, f := range large.Entities {
				ranked[i] = vector.Neighbor{ID: i, Dist: vector.CosineUnitDist(ctx.Vec(e.ID), ctx.Vec(f.ID))}
			}
			sort.Slice(ranked, func(i, j int) bool {
				if ranked[i].Dist != ranked[j].Dist {
					return ranked[i].Dist < ranked[j].Dist
				}
				return ranked[i].ID < ranked[j].ID
			})
			for _, n := range ranked[:min(k, len(ranked))] {
				out = append(out, MkPair(e.ID, large.Entities[n.ID].ID))
			}
		}
		return out
	}
	for _, k := range []int{1, 3} {
		for _, tables := range [][2]*table.Table{{a, b}, {b, a}} {
			got := BlockTopK(ctx, tables[0], tables[1], k)
			if want := reference(tables[0], tables[1], k); len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d: BlockTopK returned %d pairs, the exact reference %d, or in another order", k, len(got), len(want))
			}
		}
	}
	if BlockTopK(ctx, a, b, 0) != nil {
		t.Fatal("k=0 must return nil")
	}
}

func TestMakeSplit(t *testing.T) {
	ctx := testCtx(t, "Geo", 0.1, 2)
	split := MakeSplit(ctx.Dataset, 0.05, 3, 1)
	if len(split) == 0 {
		t.Fatal("split must not be empty")
	}
	pos, neg := 0, 0
	oracle := truthOracle(ctx.Dataset)
	for _, ex := range split {
		if ex.Match {
			pos++
			if !oracle[MkPair(ex.A, ex.B)] {
				t.Fatal("positive example not in ground truth")
			}
		} else {
			neg++
			if oracle[MkPair(ex.A, ex.B)] {
				t.Fatal("negative example is actually a match")
			}
		}
	}
	if pos == 0 || neg == 0 {
		t.Fatalf("split must contain both classes: %d pos, %d neg", pos, neg)
	}
	if neg < pos {
		t.Fatalf("negatives (%d) should outnumber positives (%d)", neg, pos)
	}
}

func TestPLMMatcherLearns(t *testing.T) {
	ctx := testCtx(t, "Geo", 0.1, 3)
	m := NewPLMMatcher(VariantDitto)
	split := MakeSplit(ctx.Dataset, 0.2, 3, 1)
	m.Train(ctx, split)
	oracle := truthOracle(ctx.Dataset)
	// The trained model must separate matches from random non-matches.
	var posProb, negProb float64
	var nPos, nNeg int
	for p := range oracle {
		posProb += m.Prob(ctx, p.Lo, p.Hi)
		nPos++
		if nPos >= 100 {
			break
		}
	}
	ents := ctx.Ents
	for i := 0; i < 100; i++ {
		a, b := ents[(i*37)%len(ents)].ID, ents[(i*61+5)%len(ents)].ID
		if a == b || oracle[MkPair(a, b)] {
			continue
		}
		negProb += m.Prob(ctx, a, b)
		nNeg++
	}
	if posProb/float64(nPos) < negProb/float64(nNeg)+0.2 {
		t.Fatalf("model failed to learn: pos %.3f vs neg %.3f",
			posProb/float64(nPos), negProb/float64(nNeg))
	}
}

func TestPLMUntrainedPredictsZero(t *testing.T) {
	ctx := testCtx(t, "Geo", 0.05, 3)
	m := NewPLMMatcher(VariantDitto)
	e := ctx.Ents[0].ID
	if m.Prob(ctx, e, e) != 0 {
		t.Fatal("untrained model must predict 0")
	}
}

func TestPLMVariantNames(t *testing.T) {
	if NewPLMMatcher(VariantDitto).Name() != "Ditto" {
		t.Fatal("Ditto name")
	}
	if NewPLMMatcher(VariantPromptEM).Name() != "PromptEM" {
		t.Fatal("PromptEM name")
	}
}

func TestPromptEMHasMoreFeatures(t *testing.T) {
	ctx := testCtx(t, "Geo", 0.05, 3)
	d := NewPLMMatcher(VariantDitto)
	p := NewPLMMatcher(VariantPromptEM)
	e0, e1 := ctx.Ents[0].ID, ctx.Ents[1].ID
	if len(p.features(ctx, e0, e1)) <= len(d.features(ctx, e0, e1)) {
		t.Fatal("PromptEM must use an enriched feature set")
	}
}

func TestPairwiseVsChainPairCounts(t *testing.T) {
	ctx := testCtx(t, "Geo", 0.1, 4)
	m := NewPLMMatcher(VariantDitto)
	m.Train(ctx, MakeSplit(ctx.Dataset, 0.1, 3, 1))
	pw := PairwiseMatch(ctx, m)
	ch := ChainMatch(ctx, m)
	if len(pw) == 0 || len(ch) == 0 {
		t.Fatalf("both extensions must find pairs: pw=%d ch=%d", len(pw), len(ch))
	}
	// Pairwise compares every table pair and typically yields at least as
	// many raw matches as the chain.
	if len(pw) < len(ch)/2 {
		t.Fatalf("pairwise found %d but chain %d", len(pw), len(ch))
	}
}

func TestChainMatchQualityReasonable(t *testing.T) {
	ctx := testCtx(t, "Geo", 0.1, 4)
	m := NewPLMMatcher(VariantDitto)
	m.Train(ctx, MakeSplit(ctx.Dataset, 0.2, 3, 1))
	tuples := PairsToTuples(ChainMatch(ctx, m))
	rep := eval.Evaluate(tuples, ctx.Dataset.Truth)
	if rep.Pair.F1 < 0.2 {
		t.Fatalf("chain Ditto pair-F1 %.3f unreasonably low", rep.Pair.F1)
	}
}

func TestAutoFJHighPrecision(t *testing.T) {
	ctx := testCtx(t, "Geo", 0.2, 5)
	fj := NewAutoFJ()
	pairs := PairwiseMatch(ctx, fj)
	if len(pairs) == 0 {
		t.Fatal("AutoFJ must accept some pairs")
	}
	oracle := truthOracle(ctx.Dataset)
	correct := 0
	for _, p := range pairs {
		if oracle[p] {
			correct++
		}
	}
	prec := float64(correct) / float64(len(pairs))
	if prec < 0.7 {
		t.Fatalf("AutoFJ pair precision %.3f; its signature is high precision", prec)
	}
}

// TestAutoFJCosDist: AutoFJ's distance ignores the vectors' scale, puts a
// zero vector at 1, and agrees with CosineUnit on unit vectors up to rounding
// (odd and even lengths, so the tail loop runs too).
func TestAutoFJCosDist(t *testing.T) {
	for _, c := range []struct {
		a, b []float32
		want float32
	}{
		{[]float32{3, 0, 0}, []float32{0, 0.5, 0}, 1},
		{[]float32{2, 2}, []float32{-1, -1}, 2},
		{[]float32{0, 0, 0, 0}, []float32{1, 2, 3, 4}, 1},
		{[]float32{1, 2, 3, 4}, []float32{0, 0, 0, 0}, 1},
	} {
		if got := cosDist(c.a, c.b); math.Abs(float64(got-c.want)) > 1e-6 {
			t.Fatalf("cosDist(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	for _, pair := range [][2][]float32{{{1, 2, 3}, {3, -1, 2}}, {{0.5, 1, -2, 4}, {1, 1, 1, 1}}} {
		a, b := vector.Normalize(pair[0]), vector.Normalize(pair[1])
		if got, want := cosDist(a, b), vector.CosineUnitDist(a, b); math.Abs(float64(got-want)) > 1e-6 {
			t.Fatalf("cosDist(%v, %v) = %v, CosineUnitDist = %v", a, b, got, want)
		}
	}
}

func TestAutoFJEmptyTables(t *testing.T) {
	ctx := testCtx(t, "Geo", 0.05, 5)
	fj := NewAutoFJ()
	emptyTable := table.New("empty", ctx.Dataset.Schema())
	if got := fj.MatchPair(ctx, emptyTable, ctx.Dataset.Tables[0]); got != nil {
		t.Fatal("empty side must give no pairs")
	}
}

func TestMSCDHACRuns(t *testing.T) {
	ctx := testCtx(t, "Geo", 0.1, 6)
	hac := NewMSCDHAC()
	tuples, err := hac.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) == 0 {
		t.Fatal("MSCD-HAC must find clusters")
	}
	rep := eval.Evaluate(tuples, ctx.Dataset.Truth)
	if rep.Pair.F1 < 0.3 {
		t.Fatalf("MSCD-HAC pair-F1 %.3f too low to be a meaningful baseline", rep.Pair.F1)
	}
	// Clean-source constraint: no tuple may contain two entities of one
	// source.
	byID := ctx.Dataset.EntityByID()
	for _, tuple := range tuples {
		seen := map[int]bool{}
		for _, id := range tuple {
			s := byID[id].Source
			if seen[s] {
				t.Fatalf("tuple %v violates the clean-source constraint", tuple)
			}
			seen[s] = true
		}
	}
}

func TestMSCDHACRefusesLargeInput(t *testing.T) {
	ctx := testCtx(t, "Geo", 0.1, 6)
	hac := NewMSCDHAC()
	hac.MaxEntities = 10
	_, err := hac.Run(ctx)
	var tooLarge *ErrTooLarge
	if !errors.As(err, &tooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
	if tooLarge.Method != "MSCD-HAC" {
		t.Fatalf("error must identify the method: %v", tooLarge)
	}
}

func TestALMSERRuns(t *testing.T) {
	ctx := testCtx(t, "Geo", 0.1, 7)
	al := NewALMSER(len(ctx.Dataset.Truth) / 4)
	tuples, err := al.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) == 0 {
		t.Fatal("ALMSER must produce tuples")
	}
	rep := eval.Evaluate(tuples, ctx.Dataset.Truth)
	if rep.Pair.F1 < 0.3 {
		t.Fatalf("ALMSER pair-F1 %.3f too low", rep.Pair.F1)
	}
}

func TestALMSERRefusesLargeInput(t *testing.T) {
	ctx := testCtx(t, "Geo", 0.1, 7)
	al := NewALMSER(10)
	al.MaxEntities = 5
	if _, err := al.Run(ctx); err == nil {
		t.Fatal("want ErrTooLarge")
	}
}

func TestDedupePairs(t *testing.T) {
	in := []IDPair{MkPair(1, 2), MkPair(2, 1), MkPair(3, 4)}
	out := dedupePairs(in)
	if len(out) != 2 {
		t.Fatalf("dedupe failed: %v", out)
	}
}

func TestUniqueInts(t *testing.T) {
	got := uniqueInts([]int{3, 1, 3, 2, 1})
	if !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("uniqueInts = %v", got)
	}
}
