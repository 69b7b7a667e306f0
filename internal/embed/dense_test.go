package embed

import (
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/race"
	"repro/internal/vector"
)

// TestMain fails a run that ends on another kernel path than it began on.
func TestMain(m *testing.M) { os.Exit(vector.KernelsRestored(m.Run)) }

// denseEncodeInto is the encoder's definition and the oracle EncodeInto is
// pinned to: tokens and weights come from the package's exported Tokenize
// and Lexicality, the bucket is h % dim, and every token vector is built,
// normalized and pooled over all Dim coordinates through the vector kernels.
// The per-token loop is the one EncodeInto had before it went sparse, kept
// here as its only copy.
func denseEncodeInto(e *HashEncoder, text string, out []float32) {
	for i := range out {
		out[i] = 0
	}
	toks := Tokenize(text)
	if len(toks) > e.seqLen {
		toks = toks[:e.seqLen]
	}
	if len(toks) == 0 {
		return
	}
	tokVec := make([]float32, e.dim)
	var total float32
	for _, tok := range toks {
		for i := range tokVec {
			tokVec[i] = 0
		}
		marked := []byte("#" + tok + "#")
		for _, n := range e.grams {
			if len(marked) < n {
				denseAddGram(marked, tokVec)
				continue
			}
			for i := 0; i+n <= len(marked); i++ {
				denseAddGram(marked[i:i+n], tokVec)
			}
		}
		vector.Normalize(tokVec)
		w := float32(1)
		if e.tokenLex {
			w = Lexicality(tok)
		}
		vector.AddScaled(out, tokVec, w)
		total += w
	}
	if total > 0 {
		vector.Scale(out, 1/total)
	}
	vector.Normalize(out)
}

func denseAddGram(gram []byte, dst []float32) {
	h := uint64(fnvOffset64)
	for _, c := range gram {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	idx := int(h % uint64(len(dst)))
	if h&(1<<63) != 0 {
		dst[idx]--
	} else {
		dst[idx]++
	}
}

// checkMatchesDense encodes text both ways and fails on the first
// coordinate whose bits differ. It also checks what the sparse loop relies
// on (the pooled scratch's tokVec is all zero between calls) and what every
// caller relies on (the output is unit-norm or exactly zero).
func checkMatchesDense(t testing.TB, e *HashEncoder, text string) {
	t.Helper()
	got := make([]float32, e.dim)
	for i := range got {
		got[i] = float32(math.NaN()) // EncodeInto must overwrite, not accumulate
	}
	e.EncodeInto(text, got)
	want := make([]float32, e.dim)
	denseEncodeInto(e, text, want)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("dim %d grams %v seqLen %d lex %v kernels %s: coordinate %d = %x, dense definition gives %x (text %q)",
				e.dim, e.grams, e.seqLen, e.tokenLex, vector.Kernels(), i,
				math.Float32bits(got[i]), math.Float32bits(want[i]), clip(text))
		}
	}
	sc := e.scratch.Get().(*encodeScratch)
	for i, c := range sc.tokVec {
		if c != 0 {
			t.Fatalf("dim %d: scratch tokVec[%d] = %v after EncodeInto (text %q)", e.dim, i, c, clip(text))
		}
	}
	e.scratch.Put(sc)
	var normSq float64
	for _, x := range got {
		normSq += float64(x) * float64(x)
	}
	if normSq != 0 && math.Abs(normSq-1) > 1e-5 {
		t.Fatalf("dim %d: squared norm %v, want 1 or exactly 0 (text %q)", e.dim, normSq, clip(text))
	}
}

func clip(s string) string {
	if len(s) > 80 {
		return s[:80] + "..."
	}
	return s
}

// bothKernels runs fn under the scalar and (where the CPU has it) the AVX2
// kernel path: the oracle's Normalize rides Dot, whose kernel differs
// between the two (its bits do not), and the sparse loop must match each.
func bothKernels(t *testing.T, fn func(t *testing.T)) {
	for _, mode := range []string{"scalar", "avx2"} {
		t.Run(mode, func(t *testing.T) {
			vector.ForceKernels(t, mode)
			fn(t)
		})
	}
}

// oracleEncoders spans the option space: tiny dims force bucket collisions
// and sign cancellations, 13 and 300 take the modulo path, 2 and 256 the
// mask path.
func oracleEncoders() []*HashEncoder {
	var es []*HashEncoder
	for _, dim := range []int{1, 2, 3, 13, 256, 300} {
		es = append(es,
			NewHashEncoder(WithDim(dim)),
			NewHashEncoder(WithDim(dim), WithGrams(2)),
			NewHashEncoder(WithDim(dim), WithGrams(1, 3, 5), WithoutLexicality()),
			NewHashEncoder(WithDim(dim), WithSeqLen(3)),
			NewHashEncoder(WithDim(dim), WithSeqLen(1), WithoutLexicality()),
		)
	}
	return es
}

// randomText draws from alphabets that hit every tokenizer branch: ASCII
// letters in both cases, digits, separators, multi-byte letters and digits,
// runes whose lowercase form is ASCII (Kelvin sign, dotted capital I), and
// bytes that are not valid UTF-8.
func randomText(rng *rand.Rand) string {
	alphabet := []string{
		"a", "e", "b", "T", "Z", "q", "0", "7", " ", " ", "-", "'", ".", "\t",
		"é", "Ü", "ß", "ж", "Ж", "日", "本", "٣", "\u212a", "\u0130", "\xff", "\xc3", "🙂",
	}
	var b strings.Builder
	for n := rng.Intn(60); n > 0; n-- {
		b.WriteString(alphabet[rng.Intn(len(alphabet))])
	}
	return b.String()
}

func TestEncodeMatchesDense(t *testing.T) {
	fixed := []string{
		"", " ", "...", "a", "ab", "A", "7", "q5", "wom14513028",
		"Apple iPhone 8 Plus 14 cm 5.5 64 GB 12 MP iOS 11 silver unlocked",
		"Tim O'Brien", "Crème Brûlée à la carte", "日本語 テキスト", "٣٤٥ ١٢",
		"\u212a \u0130stanbul", "\xff\xfe broken \xc3 utf8", "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
		strings.Repeat("word ", MaxSeqLen+9),    // more than MaxSeqLen tokens
		strings.Repeat("x1 ", 3*MaxSeqLen),      // every token damped
		strings.Repeat("ab", 40) + " " + "abab", // one bucket hit many times
	}
	bothKernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		for _, e := range oracleEncoders() {
			for _, text := range fixed {
				checkMatchesDense(t, e, text)
			}
			for i := 0; i < 150; i++ {
				checkMatchesDense(t, e, randomText(rng))
			}
		}
	})
}

// A token whose squared count norm reaches 2^24 is past where a float32 sum
// of integer squares is exact, so its norm depends on the kernel's reduction
// order, and the encoder must still agree with the dense definition bit for
// bit. A periodic token of a few thousand characters gets there at any dim:
// its handful of distinct n-grams each count in the thousands. (Summing
// the squares in hit order instead of asking the kernel fails about half
// of these, at dim 256 as well as at dim 5.)
func TestEncodeMatchesDenseHeavyToken(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		for _, dim := range []int{1, 2, 3, 5, 13, 256} {
			e := NewHashEncoder(WithDim(dim))
			for _, unit := range []string{"a", "ab", "abc"} {
				for n := 2500; n < 2530; n++ {
					checkMatchesDense(t, e, "head "+strings.Repeat(unit, n)+" tail")
				}
			}
		}
	})
}

func TestEncodeIntoDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	e := NewHashEncoder()
	out := make([]float32, e.Dim())
	text := "apple iphone 8 plus 14 cm 5.5 64 gb 12 mp ios 11 silver unlocked"
	e.EncodeInto(text, out) // size the pooled scratch
	if n := testing.AllocsPerRun(200, func() { e.EncodeInto(text, out) }); n != 0 {
		t.Fatalf("EncodeInto allocates %v times per call, want 0", n)
	}
}

// FuzzEncodeMatchesDense feeds arbitrary bytes through a small-dimension
// encoder (so buckets collide and cancel constantly) and requires the
// result to be bit-equal to the dense definition, unit-norm or exactly
// zero, with the scratch invariant intact. Seeds are serialized records of
// the three benchmark generators.
func FuzzEncodeMatchesDense(f *testing.F) {
	for _, name := range []string{"Music-20", "Geo", "Person"} {
		s, err := datagen.NewStream(name, 1000, 0, 1)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			f.Add([]byte(strings.Join(s.Record(), " ")), uint8(i))
		}
	}
	f.Add([]byte("\u212a \u0130stanbul \xff ٣٤٥ aaaa aaaa"), uint8(0))
	encoders := fuzzEncoders()
	f.Fuzz(func(t *testing.T, text []byte, sel uint8) {
		checkMatchesDense(t, encoders[int(sel)%len(encoders)], string(text))
	})
}

// fuzzEncoders are the fuzz targets' encoders: dims 1..24 under the
// default grams, then again under a lone bigram with every token at
// weight 1. They are reused across inputs so a scratch left dirty by one
// input shows up in the next.
func fuzzEncoders() []*HashEncoder {
	var encoders []*HashEncoder
	for dim := 1; dim <= 24; dim++ {
		encoders = append(encoders, NewHashEncoder(WithDim(dim)))
	}
	for dim := 1; dim <= 24; dim++ {
		encoders = append(encoders, NewHashEncoder(WithDim(dim), WithGrams(2), WithoutLexicality()))
	}
	return encoders
}
