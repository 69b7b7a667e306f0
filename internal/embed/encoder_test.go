package embed

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/table"
	"repro/internal/vector"
)

func TestTokenize(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"Apple iPhone 8 Plus", []string{"apple", "iphone", "8", "plus"}},
		{"Tim O'Brien", []string{"tim", "o", "brien"}},
		{"", nil},
		{"  --  ", nil},
		{"XPE+COB led Q5", []string{"xpe", "cob", "led", "q5"}},
		{"64gb,silver", []string{"64gb", "silver"}},
	}
	for _, tc := range tests {
		if got := Tokenize(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := Tokenize("Ärzte café 日本")
	want := []string{"ärzte", "café", "日本"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize unicode = %v, want %v", got, want)
	}
}

func TestLexicality(t *testing.T) {
	type tc struct {
		tok  string
		want float32
	}
	for _, c := range []tc{
		{"apple", 1.0},
		{"chameleon", 1.0},
		{"gb", 0.6},
		{"2021", 0.25},
		{"wom14513028", 0.1},
		{"8gb", 0.5},
		{"q5", 0.5},
		{"", 0.01},
	} {
		if got := Lexicality(c.tok); got != c.want {
			t.Errorf("Lexicality(%q) = %v, want %v", c.tok, got, c.want)
		}
	}
}

func TestLexicalityOrdering(t *testing.T) {
	// Words must always outweigh identifier-shaped tokens.
	if Lexicality("iphone") <= Lexicality("wom94369364") {
		t.Fatal("word must outweigh long identifier")
	}
	if Lexicality("silver") <= Lexicality("1234") {
		t.Fatal("word must outweigh pure number")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	e := NewHashEncoder()
	a := e.Encode("apple iphone 8 plus 64gb silver")
	b := e.Encode("apple iphone 8 plus 64gb silver")
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Encode must be deterministic")
	}
}

// TestEncodeUnitNorm pins what every cosine in the pipeline rests on:
// vector.CosineUnitDist takes 1 - dot for the cosine distance, and attribute
// selection and the PLM baselines take dot for the similarity, which holds
// only for unit-norm or zero vectors. Every serialized row of every dataset
// family at a small scale, and the empty text, goes through Encode and
// Rows on both kernel paths; each embedding must be exactly zero
// or within 1e-5 of unit norm.
func TestEncodeUnitNorm(t *testing.T) {
	texts := []string{"hello world", ""}
	for _, spec := range datagen.Specs() {
		d, err := datagen.Generate(spec, min(1, 1000/float64(spec.Tuples+spec.Singletons)), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range d.AllEntities() {
			texts = append(texts, table.Serialize(ent, nil))
		}
	}
	e := NewHashEncoder()
	check := func(t *testing.T, path, text string, v []float32) {
		t.Helper()
		var sq float64
		for _, x := range v {
			sq += float64(x) * float64(x)
		}
		if n := math.Sqrt(sq); sq != 0 && math.Abs(n-1) > 1e-5 {
			t.Fatalf("%s: norm %v, want 1 or exactly 0 (text %q)", path, n, clip(text))
		}
	}
	bothKernels(t, func(t *testing.T) {
		rows, v := Rows(e, texts), make([]float32, e.Dim())
		for i, text := range texts {
			check(t, "Encode", text, e.Encode(text))
			rows.CopyTo(v, i)
			check(t, "Rows", text, v)
		}
	})
}

func TestEncodeEmptyIsZero(t *testing.T) {
	e := NewHashEncoder()
	v := e.Encode("")
	if vector.Norm(v) != 0 {
		t.Fatal("empty text must encode to the zero vector")
	}
	if len(v) != e.Dim() {
		t.Fatal("dimension must be preserved for empty text")
	}
}

// The core property the pipeline needs: similar strings are closer than
// dissimilar strings in cosine space. Embeddings are unit-norm or zero
// (TestEncodeUnitNorm), so their dot product is their cosine similarity.
func TestEncodeSimilarityOrdering(t *testing.T) {
	e := NewHashEncoder()
	base := e.Encode("apple iphone 8 plus 64gb silver")
	variant := e.Encode("apple iphone 8 plus 5.5 64gb 4g unlocked sim free")
	other := e.Encode("samsung galaxy watch active 2 rose gold")
	simVariant := vector.Dot(base, variant)
	simOther := vector.Dot(base, other)
	if simVariant <= simOther {
		t.Fatalf("variant sim %v must exceed unrelated sim %v", simVariant, simOther)
	}
	if simVariant < 0.5 {
		t.Fatalf("variant of the same product should be close, got %v", simVariant)
	}
}

func TestEncodeTypoRobustness(t *testing.T) {
	e := NewHashEncoder()
	a := e.Encode("chameleon tim obrien")
	b := e.Encode("chamelon tim o brien") // deletion + token split
	c := e.Encode("completely different words here")
	if vector.Dot(a, b) <= vector.Dot(a, c) {
		t.Fatal("typo variant must stay closer than unrelated text")
	}
}

// Reproduces the paper's Example 1: replacing an identifier attribute moves
// the embedding less than replacing a content attribute.
func TestExample1IdentifierInsensitivity(t *testing.T) {
	e := NewHashEncoder()
	ea := e.Encode("wom14513028 megna's tim o'brien chameleon")
	eb := e.Encode("wom94369364 megna's tim o'brien chameleon")  // id replaced
	ec := e.Encode("wom14513028 megna's tim o'brien the hitmen") // album replaced
	simID := vector.Dot(ea, eb)
	simAlbum := vector.Dot(ea, ec)
	if simID <= simAlbum {
		t.Fatalf("id change (sim %v) must perturb less than album change (sim %v)", simID, simAlbum)
	}
	if simID < 0.85 {
		t.Fatalf("id replacement should keep high similarity, got %v", simID)
	}
}

func TestWithoutLexicalityChangesBehaviour(t *testing.T) {
	plain := NewHashEncoder(WithoutLexicality())
	ea := plain.Encode("wom14513028 megna's tim o'brien chameleon")
	eb := plain.Encode("wom94369364 megna's tim o'brien chameleon")
	weighted := NewHashEncoder()
	wa := weighted.Encode("wom14513028 megna's tim o'brien chameleon")
	wb := weighted.Encode("wom94369364 megna's tim o'brien chameleon")
	if vector.Dot(wa, wb) <= vector.Dot(ea, eb) {
		t.Fatal("lexicality weighting must increase robustness to id churn")
	}
}

func TestEncodeRespectsSeqLen(t *testing.T) {
	e := NewHashEncoder(WithSeqLen(2))
	a := e.Encode("alpha beta")
	b := e.Encode("alpha beta gamma delta")
	if !reflect.DeepEqual(a, b) {
		t.Fatal("tokens past seqLen must be ignored")
	}
}

func TestEncodeBatchMatchesEncode(t *testing.T) {
	e := NewHashEncoder()
	texts := make([]string, 100)
	for i := range texts {
		texts[i] = fmt.Sprintf("product number %d deluxe edition", i)
	}
	batch := e.EncodeBatch(texts)
	for i, text := range texts {
		if !reflect.DeepEqual(batch[i], e.Encode(text)) {
			t.Fatalf("batch[%d] differs from Encode", i)
		}
	}
}

func TestEncodeBatchEmpty(t *testing.T) {
	e := NewHashEncoder()
	if got := e.EncodeBatch(nil); len(got) != 0 {
		t.Fatal("empty batch must return empty slice")
	}
}

func TestEncoderOptions(t *testing.T) {
	e := NewHashEncoder(WithDim(64), WithGrams(2))
	if e.Dim() != 64 {
		t.Fatal("WithDim not applied")
	}
	if len(e.Encode("hello")) != 64 {
		t.Fatal("embedding has wrong dimension")
	}
}

// An invalid option panics in NewHashEncoder with the package's message,
// not later: a zero sequence length used to encode every text to the zero
// vector, a negative one or a negative n-gram size to panic inside the
// first Encode, and a zero n-gram size to yield a one-coordinate embedding.
func TestEncoderBadOptionsPanic(t *testing.T) {
	for i, opt := range []Option{
		WithDim(0),
		WithGrams(),
		WithSeqLen(0),
		WithSeqLen(-1),
		WithGrams(0),
		WithGrams(3, -2),
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "embed: ") {
					t.Fatalf("option %d: NewHashEncoder recovered %q, want an \"embed: \" panic", i, msg)
				}
			}()
			NewHashEncoder(opt)
		}()
	}
}

func TestShortTokenStillEmbeds(t *testing.T) {
	e := NewHashEncoder(WithGrams(4))
	v := e.Encode("ab") // marked form "#ab#" has exactly one 4-gram
	if vector.Norm(v) == 0 {
		t.Fatal("short tokens must still produce signal")
	}
	w := e.Encode("a") // marked form "#a#" shorter than the gram
	if vector.Norm(w) == 0 {
		t.Fatal("tokens shorter than the gram must fall back to whole-token hashing")
	}
}

// Property: cosine similarity of encodings is bounded and symmetric for
// arbitrary strings.
func TestEncodeProperty(t *testing.T) {
	e := NewHashEncoder(WithDim(32))
	f := func(a, b string) bool {
		va, vb := e.Encode(a), e.Encode(b)
		s1 := vector.Dot(va, vb)
		s2 := vector.Dot(vb, va)
		return s1 >= -1.0001 && s1 <= 1.0001 && math.Abs(float64(s1-s2)) < 1e-5
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: appending shared context increases similarity of two texts.
func TestSharedContextIncreasesSimilarity(t *testing.T) {
	e := NewHashEncoder()
	a, b := "red bicycle", "blue car"
	plain := vector.Dot(e.Encode(a), e.Encode(b))
	ctx := " vintage collectors edition nineteen fifty"
	shared := vector.Dot(e.Encode(a+ctx), e.Encode(b+ctx))
	if shared <= plain {
		t.Fatalf("shared context must raise similarity: %v -> %v", plain, shared)
	}
}

func BenchmarkEncode(b *testing.B) {
	e := NewHashEncoder()
	text := "apple iphone 8 plus 14 cm 5.5 64 gb 12 mp ios 11 silver unlocked"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Encode(text)
	}
}

func BenchmarkEncodeBatch1000(b *testing.B) {
	e := NewHashEncoder()
	texts := make([]string, 1000)
	for i := range texts {
		texts[i] = fmt.Sprintf("item %d with a medium length description text", i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.EncodeBatch(texts)
	}
}
