package datagen

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/embed"
	"repro/internal/table"
	"repro/internal/vector"
)

func TestSpecsRegistryComplete(t *testing.T) {
	specs := Specs()
	for _, name := range []string{"Geo", "Music-20", "Music-200", "Music-2000", "Person", "Shopee"} {
		if _, ok := specs[name]; !ok {
			t.Fatalf("missing spec %s", name)
		}
	}
	// Table III shapes.
	if s := specs["Geo"]; s.Sources != 4 || len(s.Attrs) != 3 {
		t.Fatalf("Geo shape wrong: %+v", s)
	}
	if s := specs["Shopee"]; s.Sources != 20 || len(s.Attrs) != 1 {
		t.Fatalf("Shopee shape wrong: %+v", s)
	}
	if s := specs["Person"]; s.Sources != 5 || len(s.Attrs) != 4 {
		t.Fatalf("Person shape wrong: %+v", s)
	}
	if s := specs["Music-2000"]; s.Tuples != 500_000 {
		t.Fatalf("Music-2000 full size must be 500k tuples: %+v", s)
	}
}

func TestGenerateGeoValid(t *testing.T) {
	d, err := GenerateByName("Geo", 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumSources() != 4 {
		t.Fatalf("sources = %d", d.NumSources())
	}
	if len(d.Truth) != 820 {
		t.Fatalf("tuples = %d, want 820", len(d.Truth))
	}
	// Entity count should be near Table III's 3054.
	n := d.NumEntities()
	if n < 2500 || n > 3800 {
		t.Fatalf("entities = %d, want ~3054", n)
	}
}

func TestGenerateScaled(t *testing.T) {
	d, err := GenerateByName("Music-20", 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Truth) != 500 {
		t.Fatalf("scaled tuples = %d, want 500", len(d.Truth))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := GenerateByName("Geo", 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateByName("Geo", 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEntities() != b.NumEntities() {
		t.Fatal("same seed must give same entity count")
	}
	ea, eb := a.AllEntities(), b.AllEntities()
	for i := range ea {
		if !reflect.DeepEqual(ea[i].Values, eb[i].Values) {
			t.Fatalf("row %d differs between same-seed runs", i)
		}
	}
	c, err := GenerateByName("Geo", 0.2, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	ec := c.AllEntities()
	for i := range ea {
		if i < len(ec) && !reflect.DeepEqual(ea[i].Values, ec[i].Values) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds must give different data")
	}
}

func TestGenerateRejectsBadArgs(t *testing.T) {
	if _, err := GenerateByName("Geo", 0, 1); err == nil {
		t.Fatal("scale 0 must fail")
	}
	if _, err := GenerateByName("Geo", 1.5, 1); err == nil {
		t.Fatal("scale > 1 must fail")
	}
	if _, err := GenerateByName("NoSuch", 1, 1); err == nil {
		t.Fatal("unknown dataset must fail")
	}
	if _, err := Generate(Spec{Name: "x", Sources: 1}, 1, 1); err == nil {
		t.Fatal("single source must fail")
	}
}

func TestTupleMembersSpanDistinctSources(t *testing.T) {
	d, err := GenerateByName("Music-20", 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	byID := d.EntityByID()
	for _, tuple := range d.Truth {
		seen := map[int]bool{}
		for _, id := range tuple {
			src := byID[id].Source
			if seen[src] {
				t.Fatalf("tuple %v has two members from source %d", tuple, src)
			}
			seen[src] = true
		}
	}
}

func TestTupleSizeDistribution(t *testing.T) {
	d, err := GenerateByName("Person", 0.001, 5)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int]int{}
	for _, tuple := range d.Truth {
		sizes[len(tuple)]++
	}
	// Person is dominated by size-4 tuples (weight 0.79).
	if sizes[4] < sizes[2] || sizes[4] < sizes[5] {
		t.Fatalf("size histogram looks wrong: %v", sizes)
	}
}

func TestMusicIDsAreRecordLevelNoise(t *testing.T) {
	d, err := GenerateByName("Music-20", 0.02, 4)
	if err != nil {
		t.Fatal(err)
	}
	byID := d.EntityByID()
	idCol := d.Schema().Index("id")
	titleCol := d.Schema().Index("title")
	overlapping := 0
	for _, tuple := range d.Truth[:20] {
		a, b := byID[tuple[0]], byID[tuple[1]]
		if a.Values[idCol] == b.Values[idCol] {
			t.Fatalf("matched records share an id %q; ids must be per-record noise", a.Values[idCol])
		}
		if tokenOverlap(a.Values[titleCol], b.Values[titleCol]) > 0 {
			overlapping++
		}
	}
	// Typos and abbreviations may erase whole-token overlap on a few
	// tuples (char n-grams still match them); most must overlap.
	if overlapping < 14 {
		t.Fatalf("only %d/20 matched title pairs share tokens", overlapping)
	}
}

func tokenOverlap(a, b string) int {
	as := map[string]bool{}
	for _, t := range strings.Fields(strings.ToLower(a)) {
		as[t] = true
	}
	n := 0
	for _, t := range strings.Fields(strings.ToLower(b)) {
		if as[t] {
			n++
		}
	}
	return n
}

// Matched records must be closer in embedding space than random pairs —
// otherwise no EM method could work on the generated data.
func TestCorruptionPreservesMatchability(t *testing.T) {
	d, err := GenerateByName("Music-20", 0.02, 6)
	if err != nil {
		t.Fatal(err)
	}
	enc := embed.NewHashEncoder()
	byID := d.EntityByID()
	sig := []int{2, 4, 5} // title, artist, album
	embOf := func(id int) []float32 {
		return enc.Encode(table.Serialize(byID[id], sig))
	}
	var matchedSims, randomSims []float32 // dot = cosine on unit-norm embeddings
	rng := rand.New(rand.NewSource(1))
	all := d.AllEntities()
	for _, tuple := range d.Truth[:50] {
		matchedSims = append(matchedSims, vector.Dot(embOf(tuple[0]), embOf(tuple[1])))
		a := all[rng.Intn(len(all))].ID
		b := all[rng.Intn(len(all))].ID
		randomSims = append(randomSims, vector.Dot(embOf(a), embOf(b)))
	}
	if mean32(matchedSims) < mean32(randomSims)+0.3 {
		t.Fatalf("matched sim %.3f not separated from random sim %.3f",
			mean32(matchedSims), mean32(randomSims))
	}
}

func mean32(xs []float32) float32 {
	var s float32
	for _, x := range xs {
		s += x
	}
	return s / float32(len(xs))
}

// Shopee must contain confusable distinct products: different true entities
// with highly overlapping titles.
func TestShopeeIsConfusable(t *testing.T) {
	d, err := GenerateByName("Shopee", 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Count pairs of *different* truth clusters whose first members share
	// >= 3 title tokens.
	byID := d.EntityByID()
	confusable := 0
	for i := 0; i+1 < len(d.Truth) && i < 300; i++ {
		a := byID[d.Truth[i][0]].Values[0]
		b := byID[d.Truth[i+1][0]].Values[0]
		if tokenOverlap(a, b) >= 3 {
			confusable++
		}
	}
	if confusable < 20 {
		t.Fatalf("only %d confusable neighbour clusters; Shopee must be hard", confusable)
	}
}

func TestGeneratedStatsRoughlyMatchTable3(t *testing.T) {
	// Pairs/tuples ratios from Table III: Geo 5.36, Music 3.25, Person 6.66.
	type want struct {
		name  string
		ratio float64
		tol   float64
	}
	for _, w := range []want{
		{"Geo", 5.36, 0.8},
		{"Music-20", 3.25, 0.6},
	} {
		d, err := GenerateByName(w.name, 0.5, 3)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(d.NumTruthPairs()) / float64(len(d.Truth))
		if ratio < w.ratio-w.tol || ratio > w.ratio+w.tol {
			t.Errorf("%s pairs/tuples = %.2f, want %.2f±%.2f", w.name, ratio, w.ratio, w.tol)
		}
	}
}

func TestRandomIDFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	id := RandomID(rng, "wom")
	if !strings.HasPrefix(id, "wom") || len(id) != 11 {
		t.Fatalf("RandomID = %q", id)
	}
}

func TestCorruptTextKeepsSignal(t *testing.T) {
	c := Corruptor{Severity: 0.5}
	rng := rand.New(rand.NewSource(9))
	orig := "golden summer nights forever"
	changed := 0
	for i := 0; i < 50; i++ {
		got := c.CorruptText(rng, orig, i%5)
		if got != orig {
			changed++
		}
		if tokenOverlap(orig, got) == 0 && len(strings.Fields(got)) > 0 {
			t.Fatalf("corruption destroyed all signal: %q", got)
		}
	}
	if changed == 0 {
		t.Fatal("severity 0.5 must actually corrupt sometimes")
	}
}

func TestCorruptTextEmptyString(t *testing.T) {
	c := Corruptor{Severity: 1}
	rng := rand.New(rand.NewSource(1))
	if got := c.CorruptText(rng, "", 0); got != "" {
		t.Fatalf("empty stays empty, got %q", got)
	}
}

func TestCorruptNumber(t *testing.T) {
	c := Corruptor{Severity: 1}
	rng := rand.New(rand.NewSource(2))
	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		seen[c.CorruptNumber(rng, "1990", i)] = true
	}
	if len(seen) < 2 {
		t.Fatal("CorruptNumber must produce format variants")
	}
	if got := c.CorruptNumber(rng, "", 0); got != "" {
		t.Fatal("empty number stays empty")
	}
}
