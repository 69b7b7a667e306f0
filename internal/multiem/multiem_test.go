package multiem

import (
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/table"
	"repro/internal/vector"
)

func geoOpts() Options {
	o := DefaultOptions()
	o.M = 0.5
	o.Gamma = 0.9
	o.Eps = 1.0
	return o
}

func smallGeo(t testing.TB) *table.Dataset {
	t.Helper()
	d, err := datagen.GenerateByName("Geo", 0.3, 11)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestValidate(t *testing.T) {
	bad := []func(*Options){
		func(o *Options) { o.K = 0 },
		func(o *Options) { o.M = -1 },
		func(o *Options) { o.M = 3 },
		func(o *Options) { o.Gamma = 0 },
		func(o *Options) { o.Gamma = 1.5 },
		func(o *Options) { o.SampleRatio = 0 },
		func(o *Options) { o.Eps = 0 },
		func(o *Options) { o.MinPts = 0 },
		func(o *Options) { o.Encoder = nil },
	}
	for i, mutate := range bad {
		o := DefaultOptions()
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Fatalf("case %d: want validation error", i)
		}
	}
	o := DefaultOptions()
	if err := o.Validate(); err != nil {
		t.Fatalf("defaults must validate: %v", err)
	}
}

func TestRunEmptyDataset(t *testing.T) {
	if _, err := Run(&table.Dataset{Name: "empty"}, DefaultOptions()); err == nil {
		t.Fatal("empty dataset must error")
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	d := smallGeo(t)
	o := DefaultOptions()
	o.K = -1
	if _, err := Run(d, o); err == nil {
		t.Fatal("bad options must be rejected")
	}
}

// End-to-end quality: the pipeline must recover most Geo tuples. This is
// the repository's core smoke test of the paper's headline claim.
func TestRunGeoQuality(t *testing.T) {
	d := smallGeo(t)
	res, err := Run(d, geoOpts())
	if err != nil {
		t.Fatal(err)
	}
	rep := eval.Evaluate(res.Tuples, d.Truth)
	if rep.Tuple.F1 < 0.6 {
		t.Fatalf("Geo tuple F1 = %.3f, want >= 0.6 (P=%.3f R=%.3f)",
			rep.Tuple.F1, rep.Tuple.Precision, rep.Tuple.Recall)
	}
	if rep.Pair.F1 < rep.Tuple.F1 {
		t.Fatalf("pair-F1 %.3f must be at least tuple F1 %.3f", rep.Pair.F1, rep.Tuple.F1)
	}
}

// TestRunSelectsGeoNameOnly pins Table VII's selections on the three configs
// bench_test.go runs (γ 0.9 and r 0.2 are the defaults there too), on both
// kernel paths: a last-bit change in the similarity Algorithm 1 averages must
// not flip an attribute silently. Geo's run goes through Run as well, which
// must report what SelectAttributes chose.
func TestRunSelectsGeoNameOnly(t *testing.T) {
	for _, c := range []struct {
		name  string
		scale float64
		seed  int64
		want  []string
	}{
		{"Geo", 0.3, 11, []string{"name"}},
		{"Music-20", 0.1, 13, []string{"title", "artist", "album"}},
		{"Shopee", 0.05, 29, []string{"title"}},
	} {
		d, err := datagen.GenerateByName(c.name, c.scale, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"scalar", "avx2"} {
			t.Run(c.name+"/"+mode, func(t *testing.T) {
				if mode == "avx2" && vector.Kernels() != "avx2" {
					t.Skip("CPU lacks AVX2+FMA (or VECTOR_KERNELS forced scalar)")
				}
				defer withKernels(t, mode)()
				scores, sel := SelectAttributes(d, DefaultOptions())
				var got []string
				for _, j := range sel {
					got = append(got, d.Schema().Attrs[j])
				}
				if !reflect.DeepEqual(got, c.want) {
					for _, s := range scores {
						t.Logf("%-10s MeanSim %.9g selected %v", s.Attr, s.MeanSim, s.Selected)
					}
					t.Fatalf("%s must select %v (Table VII), got %v", c.name, c.want, got)
				}
			})
		}
	}
	res, err := Run(smallGeo(t), geoOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.SelectedNames, []string{"name"}) {
		t.Fatalf("Run on Geo selected %v, want [name] (scores %+v)", res.SelectedNames, res.AttrScores)
	}
}

func TestRunTuplesAreValid(t *testing.T) {
	d := smallGeo(t)
	res, err := Run(d, geoOpts())
	if err != nil {
		t.Fatal(err)
	}
	known := d.EntityByID()
	seen := map[int]bool{}
	for _, tuple := range res.Tuples {
		if len(tuple) < 2 {
			t.Fatalf("tuple %v smaller than 2 (Definition 2)", tuple)
		}
		for i, id := range tuple {
			if known[id] == nil {
				t.Fatalf("tuple references unknown entity %d", id)
			}
			if i > 0 && tuple[i-1] >= id {
				t.Fatalf("tuple %v not sorted/unique", tuple)
			}
			if seen[id] {
				t.Fatalf("entity %d appears in two predicted tuples", id)
			}
			seen[id] = true
		}
	}
}

func TestRunParallelMatchesSequentialQuality(t *testing.T) {
	d := smallGeo(t)
	seq, err := Run(d, geoOpts())
	if err != nil {
		t.Fatal(err)
	}
	po := geoOpts()
	po.Parallel = true
	par, err := Run(d, po)
	if err != nil {
		t.Fatal(err)
	}
	fSeq := eval.Evaluate(seq.Tuples, d.Truth).Tuple.F1
	fPar := eval.Evaluate(par.Tuples, d.Truth).Tuple.F1
	if diff := fSeq - fPar; diff > 0.05 || diff < -0.05 {
		t.Fatalf("parallel F1 %.3f deviates from sequential %.3f", fPar, fSeq)
	}
}

func TestRunBruteBackendAgreesWithHNSW(t *testing.T) {
	d := smallGeo(t)
	ho := geoOpts()
	ho.Backend = BackendHNSW
	h, err := Run(d, ho)
	if err != nil {
		t.Fatal(err)
	}
	bo := geoOpts()
	bo.Backend = BackendBrute
	b, err := Run(d, bo)
	if err != nil {
		t.Fatal(err)
	}
	fh := eval.Evaluate(h.Tuples, d.Truth).Tuple.F1
	fb := eval.Evaluate(b.Tuples, d.Truth).Tuple.F1
	if diff := fh - fb; diff > 0.05 || diff < -0.05 {
		t.Fatalf("HNSW F1 %.3f vs brute F1 %.3f differ too much", fh, fb)
	}
}

// At test sizes the planner is far below its crossover, so the default
// backend must be the exact join, tuple for tuple and confidence for
// confidence — and because the exact join does not depend on its worker
// split, the parallel pipeline must reproduce the sequential one exactly.
func TestRunAutoBackendIsExactBelowCrossover(t *testing.T) {
	d, err := datagen.GenerateByName("Music-20", 0.05, 13)
	if err != nil {
		t.Fatal(err)
	}
	run := func(mutate func(*Options)) *Result {
		o := geoOpts()
		mutate(&o)
		res, err := Run(d, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if DefaultOptions().Backend != BackendAuto {
		t.Fatal("BackendAuto must be the default")
	}
	auto := run(func(*Options) {})
	brute := run(func(o *Options) { o.Backend = BackendBrute })
	par := run(func(o *Options) { o.Backend = BackendBrute; o.Parallel = true; o.Workers = 3 })
	if len(auto.Tuples) == 0 {
		t.Fatal("sanity: no tuples")
	}
	for name, other := range map[string]*Result{"forced exact": brute, "parallel exact": par} {
		if !reflect.DeepEqual(auto.Tuples, other.Tuples) || !reflect.DeepEqual(auto.Confidences, other.Confidences) {
			t.Fatalf("default backend and %s disagree: %d vs %d tuples", name, len(auto.Tuples), len(other.Tuples))
		}
	}
}

// Ablation: disabling attribute selection on a dataset with noisy
// attributes must not improve F1 (reproduces the w/o EER row direction).
func TestAblationEER(t *testing.T) {
	d, err := datagen.GenerateByName("Music-20", 0.05, 13)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(d, geoOpts())
	if err != nil {
		t.Fatal(err)
	}
	wo := geoOpts()
	wo.DisableAttrSelect = true
	ablated, err := Run(d, wo)
	if err != nil {
		t.Fatal(err)
	}
	fFull := eval.Evaluate(full.Tuples, d.Truth).Tuple.F1
	fAbl := eval.Evaluate(ablated.Tuples, d.Truth).Tuple.F1
	if fAbl > fFull+0.02 {
		t.Fatalf("w/o EER F1 %.3f should not beat full %.3f", fAbl, fFull)
	}
	if len(ablated.SelectedAttrs) != d.Schema().Len() {
		t.Fatal("w/o EER must use every attribute")
	}
	if ablated.AttrScores != nil {
		t.Fatal("w/o EER must skip scoring")
	}
}

func TestAblationDP(t *testing.T) {
	d := smallGeo(t)
	wo := geoOpts()
	wo.DisablePruning = true
	res, err := Run(d, wo)
	if err != nil {
		t.Fatal(err)
	}
	// Pruning off: predictions still valid tuples.
	for _, tuple := range res.Tuples {
		if len(tuple) < 2 {
			t.Fatalf("invalid tuple %v with pruning disabled", tuple)
		}
	}
	full, err := Run(d, geoOpts())
	if err != nil {
		t.Fatal(err)
	}
	pFull := eval.Evaluate(full.Tuples, d.Truth).Tuple.Precision
	pWo := eval.Evaluate(res.Tuples, d.Truth).Tuple.Precision
	if pWo > pFull+0.05 {
		t.Fatalf("pruning must not hurt precision: full %.3f vs w/o DP %.3f", pFull, pWo)
	}
}

func TestTimingsPopulated(t *testing.T) {
	d := smallGeo(t)
	res, err := Run(d, geoOpts())
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timings
	if tm.Total <= 0 || tm.Represent <= 0 || tm.Merge <= 0 {
		t.Fatalf("timings must be populated: %+v", tm)
	}
	if tm.Total < tm.Select+tm.Represent+tm.Merge+tm.Prune {
		t.Fatalf("total %v smaller than phase sum", tm.Total)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	d := smallGeo(t)
	a, err := Run(d, geoOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(d, geoOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tuples) != len(b.Tuples) {
		t.Fatalf("tuple counts differ across identical runs: %d vs %d", len(a.Tuples), len(b.Tuples))
	}
	for i := range a.Tuples {
		if table.TupleKey(a.Tuples[i]) != table.TupleKey(b.Tuples[i]) {
			t.Fatalf("tuple %d differs across identical runs", i)
		}
	}
}

// Merge-order robustness (Figure 6b): different seeds must give close F1.
func TestSeedInsensitivity(t *testing.T) {
	d := smallGeo(t)
	var f1s []float64
	for seed := int64(0); seed < 3; seed++ {
		o := geoOpts()
		o.Seed = seed
		res, err := Run(d, o)
		if err != nil {
			t.Fatal(err)
		}
		f1s = append(f1s, eval.Evaluate(res.Tuples, d.Truth).Tuple.F1)
	}
	min, max := f1s[0], f1s[0]
	for _, f := range f1s {
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
	}
	if max-min > 0.08 {
		t.Fatalf("F1 varies too much across merge orders: %v", f1s)
	}
}

func TestTightMDropsRecall(t *testing.T) {
	d := smallGeo(t)
	loose := geoOpts()
	loose.M = 0.5
	tight := geoOpts()
	tight.M = 0.02
	rl, err := Run(d, loose)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Run(d, tight)
	if err != nil {
		t.Fatal(err)
	}
	recallLoose := eval.Evaluate(rl.Tuples, d.Truth).Tuple.Recall
	recallTight := eval.Evaluate(rt.Tuples, d.Truth).Tuple.Recall
	if recallTight >= recallLoose {
		t.Fatalf("m=0.02 recall %.3f must be below m=0.5 recall %.3f", recallTight, recallLoose)
	}
}

func TestSingleTableNoTuples(t *testing.T) {
	// A dataset with one table has nothing to merge across sources.
	schema := table.NewSchema("title")
	tb := table.New("source-0", schema)
	for i := 0; i < 10; i++ {
		tb.Append(&table.Entity{ID: i, Source: 0, Values: []string{"item"}})
	}
	d := &table.Dataset{Name: "one", Tables: []*table.Table{tb}}
	res, err := Run(d, geoOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 0 {
		t.Fatalf("single table cannot produce cross-source tuples, got %v", res.Tuples)
	}
}
