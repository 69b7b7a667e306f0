// Package embed provides the entity-embedding substrate that stands in for
// the pre-trained Sentence-BERT model (all-MiniLM-L12-v2) used by the paper.
//
// The paper treats the encoder as a black box M: text -> R^d whose only
// required property is that textually/semantically similar serializations
// land close in cosine space, and that non-linguistic tokens (random
// identifiers) contribute little to the representation (Example 1). This
// package realizes both properties deterministically and offline:
//
//   - each token is embedded by signed feature-hashing of its boundary-marked
//     character 3- and 4-grams into a dense d-dimensional vector, so edit
//     perturbations (typos, abbreviations, casing) move embeddings smoothly;
//   - tokens are weighted by a "lexicality" score: natural-language-looking
//     tokens get full weight while digit-heavy identifier-like tokens are
//     damped, mirroring a language model's insensitivity to random IDs;
//   - entity vectors are the weighted mean pool over the first MaxSeqLen
//     token vectors, L2-normalized, exactly as the paper mean-pools
//     Sentence-BERT token embeddings.
//
// Batch encoding (EncodeBatch, Rows) always hands
// the texts to GOMAXPROCS workers through par.For, whose single-worker case
// runs on the caller; nothing in the pipeline's options narrows it.
//
// A token vector is sparse: about two non-zero coordinates per character,
// each a small signed integer count. HashEncoder therefore never walks one
// densely. It keeps the counts of the current token in a scratch vector that
// is all zero between tokens, lists the coordinates the token touched, and
// pools the token into the output one listed coordinate at a time. The
// result is bit-identical to building, normalizing and adding the dense
// vector through the vector kernels, because (a) the squared norm is a sum
// of squared integers, which float32 holds exactly below 2^24 in whatever
// order the scalar or AVX2 Dot adds them (a token heavy enough to pass 2^24
// takes its norm from that Dot over the scratch vector instead), and (b)
// out[i] += w * (count * inv) rounds exactly where the dense a[i] *= inv
// followed by out[i] += w * a[i] rounded, while a zero coordinate
// contributed w * 0 = +0, which changes no out[i] (out[i] is never -0).
// The dense definition lives on as the test oracle (denseEncodeInto).
//
// A token's unit vector and weight are functions of that token alone, and
// pooling is a fixed sequence of per-token adds. So a record can be pooled
// from its fields' cached token vectors (Fields) with the bits EncodeInto
// gives for the serialized record: table.Serialize joins trimmed, non-empty
// values with a space, which the tokenizer treats as a separator, so the
// record's tokens are its fields' tokens one after another, and Fields
// pools those same per-token values in the same order under the same
// MaxSeqLen cap, zero-norm tokens included in the cap and in the total
// weight. Swapping one field's tokens for another value's keeps that order.
// Subtracting the old field's vectors from the pooled sum and adding the
// new ones would not: it reorders the float32 additions and moves the last
// bits. EncodeInto and Fields share the per-token helpers (unitToken,
// poolToken, finishPool), but EncodeInto pools each token as soon as it is
// hashed: routing it through a field buffer cost 15–25 % per encode.
package embed

import (
	"strings"
	"unicode"
)

// MaxSeqLen mirrors the paper's maximum sequence length of 64 tokens
// (§IV-A); tokens beyond it are ignored by the encoder.
const MaxSeqLen = 64

// Tokenize lowercases the text and splits it into alphanumeric runs.
// Punctuation separates tokens but is otherwise dropped, so
// "Tim O'Brien" -> ["tim", "o", "brien"].
func Tokenize(text string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// Lexicality scores how much a token looks like natural language, in (0, 1].
// Alphabetic vowel-containing tokens score 1.0; pure numbers and mixed
// alphanumeric identifier-like tokens are strongly damped. This is the
// mechanism by which the encoder reproduces Sentence-BERT's behaviour in the
// paper's Example 1: perturbing an `id` value moves the embedding far less
// than perturbing a `title` value.
func Lexicality(token string) float32 {
	if token == "" {
		return 0.01
	}
	letters, digits, vowels := 0, 0, 0
	for _, r := range token {
		switch {
		case unicode.IsDigit(r):
			digits++
		case unicode.IsLetter(r):
			letters++
			if isVowel(r) {
				vowels++
			}
		}
	}
	return lexicalityCounts(letters, digits, vowels)
}

// isVowel reports whether a lowercased letter counts as a vowel.
func isVowel(r rune) bool {
	switch r {
	case 'a', 'e', 'i', 'o', 'u', 'y':
		return true
	}
	return false
}

// lexicalityCounts is the scoring rule behind Lexicality, split out so the
// encoder's single-pass tokenizer can score tokens from counts it gathers
// while lowercasing, without materializing the token as a string.
func lexicalityCounts(letters, digits, vowels int) float32 {
	total := letters + digits
	if total == 0 {
		return 0.01
	}
	switch {
	case digits == 0 && vowels > 0:
		// Ordinary word.
		return 1.0
	case digits == 0:
		// Vowel-less letter run: acronym or consonant cluster ("gb", "xpe").
		return 0.6
	case letters == 0:
		// Pure number: carries a little meaning (years, sizes).
		return 0.25
	default:
		// Mixed alphanumeric: identifier-shaped ("wom14513028", "q5").
		// Short tokens like "8gb" are still informative; long mixed runs
		// are almost surely surrogate keys.
		if total <= 4 {
			return 0.5
		}
		return 0.1
	}
}
