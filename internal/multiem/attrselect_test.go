package multiem

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/embed"
	"repro/internal/table"
	"repro/internal/vector"
)

// selectAttributesByText is Algorithm 1 by its text definition and the
// oracle SelectAttributes is pinned to: every sampled row is serialized
// and re-embedded once as it is and once per attribute with that
// attribute's column shuffled, through embed.BatchStore. It is the body
// SelectAttributes had before it pooled cached field vectors.
func selectAttributesByText(d *table.Dataset, opt Options) ([]AttrScore, []int) {
	schema := d.Schema()
	all := d.AllEntities()

	const minSample = 50
	n := max(int(float64(len(all))*opt.SampleRatio), minSample)
	if n > len(all) {
		n = len(all)
	}
	rng := rand.New(rand.NewSource(opt.Seed + 101))
	perm := rng.Perm(len(all))[:n]
	sample := make([]*table.Entity, n)
	for i, p := range perm {
		sample[i] = all[p]
	}

	texts := make([]string, n)
	for i, e := range sample {
		texts[i] = table.Serialize(e, nil)
	}
	base := embed.BatchStore(opt.Encoder, texts)

	scores := make([]AttrScore, schema.Len())
	shuffled := make([]string, n)
	column := make([]string, n)
	for j := 0; j < schema.Len(); j++ {
		for i, e := range sample {
			column[i] = e.Value(j)
		}
		colRng := rand.New(rand.NewSource(opt.Seed + 997 + int64(j)))
		colRng.Shuffle(n, func(a, b int) { column[a], column[b] = column[b], column[a] })
		for i, e := range sample {
			shuffled[i] = serializeWithOverride(e, j, column[i])
		}
		newEmb := embed.BatchStore(opt.Encoder, shuffled)
		var sum float32
		for i := 0; i < n; i++ {
			sum += vector.Dot(base.At(i), newEmb.At(i))
		}
		mean := sum / float32(n)
		scores[j] = AttrScore{Attr: schema.Attrs[j], Index: j, MeanSim: mean, Selected: mean <= opt.Gamma}
	}

	var selected []int
	for _, s := range scores {
		if s.Selected {
			selected = append(selected, s.Index)
		}
	}
	if len(selected) == 0 {
		best := 0
		for j := 1; j < len(scores); j++ {
			if scores[j].MeanSim < scores[best].MeanSim {
				best = j
			}
		}
		scores[best].Selected = true
		selected = []int{best}
	}
	return scores, selected
}

// serializeWithOverride serializes an entity with attribute j's value
// replaced, keeping all other attributes.
func serializeWithOverride(e *table.Entity, j int, v string) string {
	saved := e.Values[j]
	e.Values[j] = v
	s := table.Serialize(e, nil)
	e.Values[j] = saved
	return s
}

// checkSelectMatchesText runs SelectAttributes and the text oracle on the
// same dataset and options and fails unless every score (MeanSim to the
// bit) and the selection agree.
func checkSelectMatchesText(t *testing.T, d *table.Dataset, opt Options) {
	t.Helper()
	got, gotSel := SelectAttributes(d, opt)
	want, wantSel := selectAttributesByText(d, opt)
	if len(got) != len(want) {
		t.Fatalf("%d scores, oracle gives %d", len(got), len(want))
	}
	for j := range want {
		g, w := got[j], want[j]
		if g.Attr != w.Attr || g.Index != w.Index || g.Selected != w.Selected ||
			math.Float32bits(g.MeanSim) != math.Float32bits(w.MeanSim) {
			t.Fatalf("attribute %d: got %+v (bits %x), oracle %+v (bits %x)",
				j, g, math.Float32bits(g.MeanSim), w, math.Float32bits(w.MeanSim))
		}
	}
	if fmt.Sprint(gotSel) != fmt.Sprint(wantSel) {
		t.Fatalf("selected %v, oracle selects %v", gotSel, wantSel)
	}
}

// eachKernel runs fn under the scalar and, where the CPU has it, the AVX2
// kernel path.
func eachKernel(t *testing.T, fn func(t *testing.T)) {
	for _, mode := range []string{"scalar", "avx2"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "avx2" && vector.Kernels() == "scalar" {
				t.Skip("CPU lacks AVX2+FMA (or VECTOR_KERNELS forced scalar)")
			}
			vector.ForceKernels(t, mode)
			fn(t)
		})
	}
}

// craftedDataset deals literal rows alternately into two tables.
func craftedDataset(attrs []string, rows [][]string) *table.Dataset {
	schema := table.NewSchema(attrs...)
	d := &table.Dataset{Name: "crafted"}
	for s := 0; s < 2; s++ {
		d.Tables = append(d.Tables, table.New(fmt.Sprintf("t%d", s), schema))
	}
	for i, r := range rows {
		d.Tables[i%2].Append(&table.Entity{ID: i, Source: i % 2, Values: append([]string(nil), r...)})
	}
	return d
}

// countingEncoder hides the encoder it wraps behind the Encoder interface,
// so SelectAttributes cannot take the field path, and counts its Encode
// calls.
type countingEncoder struct {
	embed.Encoder
	calls atomic.Int64
}

func (c *countingEncoder) Encode(text string) []float32 {
	c.calls.Add(1)
	return c.Encoder.Encode(text)
}

// TestSelectAttributesMatchesText pins SelectAttributes' pooling of cached
// field vectors to Algorithm 1 by its text definition: the same MeanSim
// bits and the same selection on every generator at two scales and two
// seeds, on crafted rows that stress the serialization identity (the token
// cap falling inside the shuffled field, values that serialize to nothing,
// non-ASCII and broken UTF-8, a token past the 2^24 norm fallback), and
// through a foreign encoder, which must embed the serialized text.
func TestSelectAttributesMatchesText(t *testing.T) {
	gens := []struct {
		name   string
		scales []float64
	}{
		{"Geo", []float64{0.2, 0.5}},
		{"Music-20", []float64{0.05, 0.2}},
		{"Music-200", []float64{0.005, 0.02}},
		{"Person", []float64{0.001, 0.004}},
		{"Shopee", []float64{0.05, 0.2}},
	}
	var sets []*table.Dataset
	var names []string
	for _, g := range gens {
		for _, scale := range g.scales {
			for _, seed := range []int64{1, 2} {
				d, err := datagen.GenerateByName(g.name, scale, seed)
				if err != nil {
					t.Fatal(err)
				}
				sets = append(sets, d)
				names = append(names, fmt.Sprintf("%s/%g/%d", g.name, scale, seed))
			}
		}
	}

	rng := rand.New(rand.NewSource(5))
	words := []string{"red", "Bicycle", "x1", "wom14513028", "ab", "Crème", "brûlée", "日本語", "K", "İstanbul", "٣٤٥", "q5", "the"}
	phrase := func(k int) string {
		var b strings.Builder
		for ; k > 0; k-- {
			b.WriteString(words[rng.Intn(len(words))])
			b.WriteString([]string{" ", "  ", "-", ", ", "'", "\t"}[rng.Intn(6)])
		}
		return b.String()
	}
	odd := []string{"", " ", "   \t\n", "...", "--- !!", "\u00a0\u0085", "\u00a0trimmed\u2003", " spaced  out ", "\xff", "ends broken \xc3", "\xa9starts broken", "🙂 emoji"}
	var long, blank [][]string
	for i := 0; i < 70; i++ {
		// Field a holds 40 tokens and b 10 to 50, so the 64-token cap
		// falls inside b or c, wherever the shuffle moves them.
		long = append(long, []string{phrase(40), phrase(10 + rng.Intn(41)), phrase(1 + rng.Intn(30))})
		heavy := phrase(2)
		if i%9 == 0 {
			heavy = "head " + strings.Repeat("ab", 2600+i) + " tail"
		}
		blank = append(blank, []string{odd[rng.Intn(len(odd))], phrase(rng.Intn(4)), odd[rng.Intn(len(odd))], heavy})
	}
	sets = append(sets, craftedDataset([]string{"a", "b", "c"}, long), craftedDataset([]string{"w", "x", "y", "z"}, blank))
	names = append(names, "crafted/seqlen-cap", "crafted/blank-unicode-heavy")

	encoders := []struct {
		name string
		enc  embed.Encoder
	}{
		{"default", embed.NewHashEncoder()},
		{"dim13-seq5", embed.NewHashEncoder(embed.WithDim(13), embed.WithSeqLen(5))},
	}
	eachKernel(t, func(t *testing.T) {
		for i, d := range sets {
			for _, e := range encoders {
				if e.name != "default" && !strings.HasPrefix(names[i], "crafted") {
					continue
				}
				t.Run(names[i]+"/"+e.name, func(t *testing.T) {
					opt := DefaultOptions()
					opt.Encoder = e.enc
					checkSelectMatchesText(t, d, opt)
				})
			}
		}
		t.Run("foreign-encoder", func(t *testing.T) {
			for i, d := range sets {
				if !strings.HasPrefix(names[i], "crafted") && !strings.HasPrefix(names[i], "Geo") {
					continue
				}
				enc := &countingEncoder{Encoder: embed.NewHashEncoder()}
				opt := DefaultOptions()
				opt.Encoder = enc
				checkSelectMatchesText(t, d, opt)
				// One Encode per sampled row as it is and one per attribute.
				rows := d.NumEntities()
				n := min(max(int(float64(rows)*opt.SampleRatio), 50), rows)
				if got, want := enc.calls.Load(), int64(n*(1+d.Schema().Len())); got != want {
					t.Fatalf("%s: the foreign encoder encoded %d texts, want %d", names[i], got, want)
				}
			}
		})
	})
}
