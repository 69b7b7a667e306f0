package embed

import (
	"math"
	"sync"
	"unicode"
	"unicode/utf8"

	"repro/internal/par"
	"repro/internal/vector"
)

// DefaultDim is the default embedding dimensionality. The paper's
// all-MiniLM-L12-v2 produces 384-dim vectors; 256 keeps the same order of
// magnitude while staying cache-friendly.
const DefaultDim = 256

// Encoder converts text sequences to fixed-length dense embeddings. It is
// the stand-in for the Sentence-BERT model M in the paper's pipeline.
type Encoder interface {
	// Dim returns the embedding dimensionality.
	Dim() int
	// Encode returns the unit-norm embedding of one text sequence. The
	// zero vector is returned for empty/meaningless text. It must be safe
	// for concurrent use: matcher queries and attribute selection call it
	// from several goroutines.
	Encode(text string) []float32
	// EncodeBatch embeds many texts, using all cores.
	EncodeBatch(texts []string) [][]float32
}

// StoreEncoder is implemented by encoders that can write embeddings straight
// into a contiguous vector arena, skipping the per-vector allocation of
// EncodeBatch.
type StoreEncoder interface {
	Encoder
	// EncodeBatchStore embeds texts into a fresh arena, row i holding the
	// embedding of texts[i].
	EncodeBatchStore(texts []string) *vector.Store
}

// BatchStore embeds texts into a contiguous arena using the encoder's native
// arena path when it has one, and falling back to copying EncodeBatch rows
// otherwise. The pipeline's representation phase goes through here.
func BatchStore(e Encoder, texts []string) *vector.Store {
	if se, ok := e.(StoreEncoder); ok {
		return se.EncodeBatchStore(texts)
	}
	s := vector.NewStoreWithCap(e.Dim(), len(texts))
	for _, v := range e.EncodeBatch(texts) {
		s.Append(v)
	}
	return s
}

// HashEncoder is the deterministic hashed character-n-gram encoder described
// in the package comment. It is stateless after construction, safe for
// concurrent use, and needs no training data or model files.
type HashEncoder struct {
	dim      int
	pow2     bool  // dim is a power of two: h % dim is h & (dim-1)
	grams    []int // n-gram sizes, e.g. {3, 4}
	seqLen   int
	tokenLex bool // apply lexicality weighting (disabled only in tests)
	// scratch pools per-encode working state (token spans, the per-token
	// vector, the boundary-marked gram buffer) so steady-state encoding
	// allocates nothing beyond the output vector the caller asked for.
	scratch sync.Pool
}

// encodeScratch is the reusable working state of one Encode call.
type encodeScratch struct {
	// buf is the lowercased tokens, each between boundary markers and
	// sharing them with its neighbours: "#apple#iphone#8#". The markers
	// make prefixes/suffixes distinguishable ("#tim#" vs "tim" inside a
	// longer word).
	buf     []byte
	spans   [][2]int32 // token i with its markers is buf[spans[i][0]:spans[i][1]]
	weights []float32  // Lexicality of token i
	// tokVec holds the current token's signed n-gram counts. It is all
	// zero between tokens: each token re-zeroes the coordinates it touched
	// instead of clearing all dim of them.
	tokVec  []float32
	touched []int32     // tokVec coordinates that left zero, in hit order
	nz      []gramCount // the token's distinct non-zero coordinates
}

// gramCount is one non-zero coordinate of a token's count vector.
type gramCount struct {
	idx int32
	c   float32
}

// Option configures a HashEncoder.
type Option func(*HashEncoder)

// WithDim sets the embedding dimensionality (default DefaultDim).
func WithDim(d int) Option {
	return func(e *HashEncoder) { e.dim = d }
}

// WithGrams sets the character n-gram sizes (default 3 and 4).
func WithGrams(sizes ...int) Option {
	return func(e *HashEncoder) { e.grams = append([]int(nil), sizes...) }
}

// WithSeqLen sets the maximum number of tokens pooled (default MaxSeqLen).
func WithSeqLen(n int) Option {
	return func(e *HashEncoder) { e.seqLen = n }
}

// WithoutLexicality disables identifier damping; every token gets weight 1.
// Exposed for ablation benchmarks of the representation substrate.
func WithoutLexicality() Option {
	return func(e *HashEncoder) { e.tokenLex = false }
}

// NewHashEncoder builds an encoder with the given options.
func NewHashEncoder(opts ...Option) *HashEncoder {
	e := &HashEncoder{dim: DefaultDim, grams: []int{3, 4}, seqLen: MaxSeqLen, tokenLex: true}
	for _, o := range opts {
		o(e)
	}
	if e.dim <= 0 {
		panic("embed: dimension must be positive")
	}
	if len(e.grams) == 0 {
		panic("embed: at least one n-gram size required")
	}
	for _, n := range e.grams {
		if n < 1 {
			panic("embed: n-gram sizes must be positive")
		}
	}
	if e.seqLen < 1 {
		panic("embed: sequence length must be positive")
	}
	e.pow2 = e.dim&(e.dim-1) == 0
	e.scratch.New = func() any { return &encodeScratch{} }
	return e
}

// Dim implements Encoder.
func (e *HashEncoder) Dim() int { return e.dim }

// Encode implements Encoder.
func (e *HashEncoder) Encode(text string) []float32 {
	out := make([]float32, e.dim)
	e.EncodeInto(text, out)
	return out
}

// EncodeInto writes the unit-norm embedding of text into out, which must
// have length Dim. It allocates nothing in steady state, which is what lets
// EncodeBatchStore fill an arena with zero per-vector garbage.
//
// A token's hashed n-gram vector has about two non-zero coordinates per
// character, so it is never walked densely: the token is normalized and
// pooled into out one touched coordinate at a time (the package comment
// says why that is bit-identical to the dense definition). Only the final
// mean and normalization of out visit all Dim coordinates.
func (e *HashEncoder) EncodeInto(text string, out []float32) {
	if len(out) != e.dim {
		panic("embed: EncodeInto output has wrong dimension")
	}
	clear(out)
	sc := e.scratch.Get().(*encodeScratch)
	defer e.scratch.Put(sc)
	sc.tokenize(text, e.seqLen)
	if len(sc.spans) == 0 {
		return
	}
	if len(sc.tokVec) != e.dim {
		sc.tokVec = make([]float32, e.dim)
	}
	var total float32
	for ti, sp := range sc.spans {
		w := e.weight(sc, ti)
		total += w
		nz, inv := e.unitToken(sc.buf[sp[0]:sp[1]], sc)
		poolToken(out, w, inv, nz)
	}
	finishPool(out, total)
}

// weight is the pooling weight of the scratch's token ti.
func (e *HashEncoder) weight(sc *encodeScratch, ti int) float32 {
	if e.tokenLex {
		return sc.weights[ti]
	}
	return 1
}

// unitToken hashes one boundary-marked token and returns its distinct
// non-zero n-gram counts (sc.nz, in hit order) with the inverse of their
// L2 norm: the token's unit vector is c * inv at each listed coordinate. A
// token whose counts all cancelled lists none. sc.tokVec is all zero again
// on return.
func (e *HashEncoder) unitToken(marked []byte, sc *encodeScratch) ([]gramCount, float32) {
	// Accumulate the signed hashed n-gram counts, boundary markers
	// included, into tokVec, listing the coordinates that left zero in
	// touched.
	sc.touched = sc.touched[:0]
	for _, n := range e.grams {
		if len(marked) < n {
			e.addGram(marked, sc)
			continue
		}
		for i := 0; i+n <= len(marked); i++ {
			e.addGram(marked[i:i+n], sc)
		}
	}
	tokVec := sc.tokVec
	// Gather the distinct non-zero counts and hand tokVec back all zero. A
	// coordinate that cancelled to zero and was hit again is listed twice in
	// touched (its second visit reads the zero the first one left); one that
	// stayed cancelled contributes nothing.
	nz := sc.nz[:0]
	var normSq float32
	for _, idx := range sc.touched {
		c := tokVec[idx]
		if c == 0 {
			continue
		}
		tokVec[idx] = 0
		normSq += c * c
		nz = append(nz, gramCount{idx, c})
	}
	sc.nz = nz
	if normSq >= 1<<24 {
		// A float32 sum of integer squares is exact, hence the same in
		// every summation order, only below 2^24. A token this heavy
		// (thousands of characters) takes its norm from the kernel the
		// dense definition uses, reduction order included.
		for _, g := range nz {
			tokVec[g.idx] = g.c
		}
		normSq = vector.Dot(tokVec, tokVec)
		for _, g := range nz {
			tokVec[g.idx] = 0
		}
	}
	if normSq == 0 {
		return nil, 0
	}
	return nz, 1 / float32(math.Sqrt(float64(normSq)))
}

// poolToken adds w times a token's unit vector (unitToken's result) to out.
func poolToken(out []float32, w, inv float32, nz []gramCount) {
	for _, g := range nz {
		out[g.idx] += w * (g.c * inv)
	}
}

// finishPool turns out, the weighted sum of the pooled token vectors, into
// their weighted mean, L2-normalized. total is the sum of the weights of
// every pooled token, zero-norm ones included.
func finishPool(out []float32, total float32) {
	if total > 0 {
		vector.Scale(out, 1/total)
	}
	vector.Normalize(out)
}

// Fields caches the hashed token vectors of a record's fields, so a record
// can be pooled many times, each time with one field swapped for another
// value, while every field is hashed once. Pooling is bit-identical to
// EncodeInto of the values joined as table.Serialize joins them (the
// package comment says why). Attribute selection (Algorithm 1) pools each
// sampled record once as it is and once per attribute with that
// attribute's value shuffled in. A Fields is reusable scratch for one
// goroutine at a time.
type Fields struct {
	e      *HashEncoder
	sc     encodeScratch
	toks   []fieldToken
	counts []gramCount // the toks' non-zero n-gram counts, back to back
	ends   []int       // field f's tokens end at toks[ends[f]]
}

// fieldToken is one cached token: its pooling weight and its unit vector,
// counts[lo:hi] scaled by inv.
type fieldToken struct {
	w, inv float32
	lo, hi int32
}

// NewFields returns an empty field buffer for this encoder.
func (e *HashEncoder) NewFields() *Fields {
	return &Fields{e: e, sc: encodeScratch{tokVec: make([]float32, e.dim)}}
}

// Reset empties the buffer, keeping its memory.
func (f *Fields) Reset() {
	f.toks, f.counts, f.ends = f.toks[:0], f.counts[:0], f.ends[:0]
}

// Add hashes the tokens of one field value (at most the encoder's sequence
// length of them) and appends it as the next field.
func (f *Fields) Add(value string) {
	e, sc := f.e, &f.sc
	sc.tokenize(value, e.seqLen)
	for ti, sp := range sc.spans {
		nz, inv := e.unitToken(sc.buf[sp[0]:sp[1]], sc)
		lo := len(f.counts)
		f.counts = append(f.counts, nz...)
		f.toks = append(f.toks, fieldToken{e.weight(sc, ti), inv, int32(lo), int32(len(f.counts))})
	}
	f.ends = append(f.ends, len(f.toks))
}

// PoolInto writes the embedding of the buffered fields, in order, into out,
// which must have length Dim. When swap is a field index, that field's
// tokens are taken from with's first field instead; a negative swap pools
// the fields as they are. Like EncodeInto it pools at most the encoder's
// sequence length of tokens.
func (f *Fields) PoolInto(out []float32, swap int, with *Fields) {
	if len(out) != f.e.dim {
		panic("embed: PoolInto output has wrong dimension")
	}
	clear(out)
	left := f.e.seqLen
	var total float32
	start := 0
	for fi, end := range f.ends {
		src, toks := f, f.toks[start:end]
		start = end
		if fi == swap {
			src, toks = with, with.toks[:with.ends[0]]
		}
		if len(toks) > left {
			toks = toks[:left]
		}
		left -= len(toks)
		for _, t := range toks {
			total += t.w
			poolToken(out, t.w, t.inv, src.counts[t.lo:t.hi])
		}
	}
	finishPool(out, total)
}

// tokenize fills the scratch with the lowercased alphanumeric runs of text
// (at most seqLen of them) plus each run's Lexicality, computed in the same
// pass so the token never needs to exist as a string. ASCII bytes — nearly
// all of every record — are classified and lowercased inline; everything
// else goes through the unicode tables.
func (sc *encodeScratch) tokenize(text string, seqLen int) {
	sc.buf = append(sc.buf[:0], '#')
	sc.spans = sc.spans[:0]
	sc.weights = sc.weights[:0]
	start := 1
	letters, digits, vowels := 0, 0, 0
	for i := 0; i < len(text); {
		if c := text[i]; c < utf8.RuneSelf {
			i++
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if 'a' <= c && c <= 'z' {
				sc.buf = append(sc.buf, c)
				letters++
				if isVowel(rune(c)) {
					vowels++
				}
				continue
			}
			if '0' <= c && c <= '9' {
				sc.buf = append(sc.buf, c)
				digits++
				continue
			}
		} else {
			r, size := utf8.DecodeRuneInString(text[i:])
			i += size
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				lr := unicode.ToLower(r)
				sc.buf = utf8.AppendRune(sc.buf, lr)
				if unicode.IsDigit(lr) {
					digits++
				} else {
					letters++
					if isVowel(lr) {
						vowels++
					}
				}
				continue
			}
		}
		// Anything else separates tokens.
		sc.endToken(start, letters, digits, vowels)
		if len(sc.spans) == seqLen {
			return
		}
		start = len(sc.buf)
		letters, digits, vowels = 0, 0, 0
	}
	sc.endToken(start, letters, digits, vowels)
	if len(sc.spans) > seqLen {
		sc.spans = sc.spans[:seqLen]
		sc.weights = sc.weights[:seqLen]
	}
}

// endToken closes buf[start:] with a marker and records it as a token,
// unless it is empty.
func (sc *encodeScratch) endToken(start, letters, digits, vowels int) {
	if len(sc.buf) > start {
		sc.buf = append(sc.buf, '#')
		sc.spans = append(sc.spans, [2]int32{int32(start - 1), int32(len(sc.buf))})
		sc.weights = append(sc.weights, lexicalityCounts(letters, digits, vowels))
	}
}

// FNV-1a constants, matching hash/fnv's 64-bit variant bit for bit.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// addGram feature-hashes one n-gram: a 64-bit FNV-1a hash provides the target
// index (low bits) and the sign (a high bit), the standard signed
// feature-hashing trick that keeps hashed inner products unbiased. The hash
// is inlined — an fnv.New64a() per n-gram was the encoder's hottest
// allocation-and-interface-call site. A coordinate leaving zero is noted in
// sc.touched, which is all the caller walks afterwards.
func (e *HashEncoder) addGram(gram []byte, sc *encodeScratch) {
	h := uint64(fnvOffset64)
	for _, c := range gram {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	idx := h & uint64(e.dim-1)
	if !e.pow2 {
		idx = h % uint64(e.dim)
	}
	c := sc.tokVec[idx]
	if c == 0 {
		sc.touched = append(sc.touched, int32(idx))
	}
	// +1 or -1 without a branch: the sign bit is a coin flip the predictor
	// loses half the time.
	sc.tokVec[idx] = c + float32(1-2*int32(h>>63))
}

// EncodeBatch implements Encoder on GOMAXPROCS workers (par.For).
func (e *HashEncoder) EncodeBatch(texts []string) [][]float32 {
	out := make([][]float32, len(texts))
	par.For(len(texts), 0, func(_, i int) {
		out[i] = e.Encode(texts[i])
	})
	return out
}

// EncodeBatchStore implements StoreEncoder: embeddings are written directly
// into arena rows, so a batch of n texts costs one arena allocation instead
// of n vector allocations.
func (e *HashEncoder) EncodeBatchStore(texts []string) *vector.Store {
	s := vector.NewStoreWithCap(e.dim, len(texts))
	s.Grow(len(texts))
	par.For(len(texts), 0, func(_, i int) {
		e.EncodeInto(texts[i], s.At(i))
	})
	return s
}

var _ StoreEncoder = (*HashEncoder)(nil)
