package embed

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/table"
)

// checkFieldsMatchEncode pools values through a Fields, with field swap
// (when >= 0) replaced by other, and requires the bits Encode gives for
// the record serialized the way table.Serialize joins it. fields and with
// are reset and refilled, so callers can reuse them across checks.
func checkFieldsMatchEncode(t testing.TB, e *HashEncoder, fields, with *Fields, values []string, swap int, other string) {
	t.Helper()
	fields.Reset()
	for _, v := range values {
		fields.Add(v)
	}
	with.Reset()
	with.Add(other)
	got := make([]float32, e.dim)
	for i := range got {
		got[i] = float32(math.NaN()) // PoolInto must overwrite, not accumulate
	}
	fields.PoolInto(got, swap, with)

	row := &table.Entity{Values: append([]string(nil), values...)}
	if swap >= 0 {
		row.Values[swap] = other
	}
	text := table.Serialize(row, nil)
	want := e.Encode(text)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("dim %d grams %v seqLen %d lex %v: coordinate %d = %x, Encode gives %x (fields %q, swap %d with %q)",
				e.dim, e.grams, e.seqLen, e.tokenLex, i, math.Float32bits(got[i]), math.Float32bits(want[i]), values, swap, clip(other))
		}
	}
	for i, c := range fields.sc.tokVec {
		if c != 0 {
			t.Fatalf("dim %d: Fields scratch tokVec[%d] = %v after Add", e.dim, i, c)
		}
	}
}

func TestFieldsMatchEncode(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for _, e := range oracleEncoders() {
			fields, with := e.NewFields(), e.NewFields()
			for i := 0; i < 200; i++ {
				values := make([]string, 1+rng.Intn(5))
				for j := range values {
					values[j] = randomText(rng)
				}
				if i%7 == 0 {
					// More than MaxSeqLen tokens in one field.
					values[rng.Intn(len(values))] = strings.Repeat("word ", MaxSeqLen+rng.Intn(9))
				}
				swap := rng.Intn(len(values)+1) - 1
				checkFieldsMatchEncode(t, e, fields, with, values, swap, randomText(rng))
			}
			// A token past the 2^24 norm fallback, in a field and swapped in.
			heavy := "head " + strings.Repeat("ab", 2510) + " tail"
			checkFieldsMatchEncode(t, e, fields, with, []string{"x", heavy, "y z"}, -1, "")
			checkFieldsMatchEncode(t, e, fields, with, []string{"x", "q", "y z"}, 1, heavy)
		}
	})
}

// FuzzFieldsMatchEncode splits the input into fields on a separator byte,
// swaps one field (or none) for a second input, and requires the pooled
// vector to be bit-equal to Encode of the fields joined by table.Serialize's
// rule, on the small-dimension encoders FuzzEncodeMatchesDense uses. Seeds
// are records of the three benchmark generators, split on the tab.
func FuzzFieldsMatchEncode(f *testing.F) {
	for _, name := range []string{"Music-20", "Geo", "Person"} {
		s, err := datagen.NewStream(name, 1000, 0, 1)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			rec, other := s.Record(), s.Record()
			f.Add([]byte(strings.Join(rec, "\t")), []byte(other[0]), byte('\t'), uint8(i), uint8(i))
		}
	}
	f.Add([]byte("K|İstanbul \xc3|| ٣٤٥ |aaaa"), []byte("\xa9 x"), byte('|'), uint8(2), uint8(0))
	encoders := fuzzEncoders()
	fields, with := make([]*Fields, len(encoders)), make([]*Fields, len(encoders))
	for i, e := range encoders {
		fields[i], with[i] = e.NewFields(), e.NewFields()
	}
	f.Fuzz(func(t *testing.T, text, other []byte, sep byte, swap, sel uint8) {
		values := strings.Split(string(text), string([]byte{sep}))
		i := int(sel) % len(encoders)
		checkFieldsMatchEncode(t, encoders[i], fields[i], with[i], values, int(swap)%(len(values)+1)-1, string(other))
	})
}
