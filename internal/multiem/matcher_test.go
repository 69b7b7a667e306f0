package multiem

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/embed"
	"repro/internal/table"
)

func geoMatcher(t *testing.T) (*Matcher, *table.Dataset) {
	t.Helper()
	d := smallGeo(t)
	m, err := BuildMatcher(d, geoOpts())
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

func containsID(ids []int, id int) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// TestMatcherFindsKnownDuplicate: querying with the values of an entity that
// the pipeline placed in a tuple must return that tuple first.
func TestMatcherFindsKnownDuplicate(t *testing.T) {
	m, d := geoMatcher(t)
	res := m.Result()
	if res == nil || len(res.Tuples) == 0 {
		t.Fatal("matcher has no pipeline tuples to test against")
	}
	byID := d.EntityByID()
	for _, tuple := range res.Tuples[:min(len(res.Tuples), 10)] {
		id := tuple[0]
		cands, err := m.Match(byID[id].Values, 3)
		if err != nil {
			t.Fatalf("Match(%d): %v", id, err)
		}
		if len(cands) == 0 {
			t.Fatalf("no candidates for entity %d", id)
		}
		if !containsID(cands[0].EntityIDs, id) {
			t.Fatalf("entity %d: top candidate %+v does not contain it", id, cands[0])
		}
		// The centroid is a mean over all members, so self-similarity sits
		// below 1; anything under the merge band is a real failure.
		if cands[0].Similarity < 0.6 {
			t.Fatalf("entity %d: self-match similarity %.3f suspiciously low", id, cands[0].Similarity)
		}
		if cands[0].Confidence <= 0 || cands[0].Confidence > 1 {
			t.Fatalf("entity %d: confidence %v out of (0, 1]", id, cands[0].Confidence)
		}
	}
}

func TestMatcherTuplesMatchPipelineResult(t *testing.T) {
	m, _ := geoMatcher(t)
	want := m.Result().Tuples
	got, confs := m.Tuples()
	if len(got) != len(want) {
		t.Fatalf("matcher tracks %d matched tuples, pipeline predicted %d", len(got), len(want))
	}
	if len(confs) != len(got) {
		t.Fatalf("%d confidences for %d tuples", len(confs), len(got))
	}
	wantKeys := make(map[string]bool, len(want))
	for _, tu := range want {
		wantKeys[table.TupleKey(tu)] = true
	}
	for _, tu := range got {
		if !wantKeys[table.TupleKey(tu)] {
			t.Fatalf("matcher tuple %v not among pipeline predictions", tu)
		}
	}
}

func TestMatcherStats(t *testing.T) {
	m, d := geoMatcher(t)
	s := m.Stats()
	if s.Entities != d.NumEntities() {
		t.Fatalf("Stats.Entities=%d, want %d", s.Entities, d.NumEntities())
	}
	if s.Matched != len(m.Result().Tuples) {
		t.Fatalf("Stats.Matched=%d, want %d", s.Matched, len(m.Result().Tuples))
	}
	if s.Matched+s.Singletons != s.Tuples {
		t.Fatalf("Matched %d + Singletons %d != Tuples %d", s.Matched, s.Singletons, s.Tuples)
	}
	if s.IndexSize != s.Tuples {
		t.Fatalf("fresh matcher IndexSize=%d, want %d (one centroid per tuple)", s.IndexSize, s.Tuples)
	}
	if s.Dim != embed.DefaultDim {
		t.Fatalf("Stats.Dim=%d, want %d", s.Dim, embed.DefaultDim)
	}
}

// TestMatcherAddRecordsAbsorbs: adding a copy of a known record must absorb
// it into that record's tuple, and a subsequent Match must find the new ID —
// all without a pipeline re-run.
func TestMatcherAddRecordsAbsorbs(t *testing.T) {
	m, d := geoMatcher(t)
	res := m.Result()
	byID := d.EntityByID()
	id := res.Tuples[0][0]
	values := byID[id].Values

	before := m.Stats()
	adds, err := m.AddRecords([][]string{values})
	if err != nil {
		t.Fatalf("AddRecords: %v", err)
	}
	if len(adds) != 1 {
		t.Fatalf("got %d AddResults, want 1", len(adds))
	}
	ar := adds[0]
	if !ar.Absorbed {
		t.Fatalf("exact copy of entity %d was not absorbed: %+v", id, ar)
	}
	if ar.EntityID < d.NumEntities() {
		t.Fatalf("assigned ID %d collides with existing entities", ar.EntityID)
	}

	cands, err := m.Match(values, 1)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates after AddRecords")
	}
	if cands[0].Tuple != ar.Tuple {
		t.Fatalf("Match tuple %d differs from absorption tuple %d", cands[0].Tuple, ar.Tuple)
	}
	if !containsID(cands[0].EntityIDs, ar.EntityID) {
		t.Fatalf("candidate %+v does not contain newly added entity %d", cands[0], ar.EntityID)
	}
	if !containsID(cands[0].EntityIDs, id) {
		t.Fatalf("candidate %+v lost original entity %d", cands[0], id)
	}

	after := m.Stats()
	if after.Entities != before.Entities+1 {
		t.Fatalf("entity count %d, want %d", after.Entities, before.Entities+1)
	}
	if after.Tuples != before.Tuples {
		t.Fatalf("absorption must not create a tuple: %d vs %d", after.Tuples, before.Tuples)
	}
}

// TestMatcherAddRecordsSingleton: a record unlike anything in the dataset
// must start a new singleton tuple, and Match must then find it.
func TestMatcherAddRecordsSingleton(t *testing.T) {
	m, _ := geoMatcher(t)
	before := m.Stats()
	novel := []string{"zzqx wvvk jjrr", "00000", "-99.9"}
	adds, err := m.AddRecords([][]string{novel})
	if err != nil {
		t.Fatalf("AddRecords: %v", err)
	}
	if adds[0].Absorbed {
		t.Fatalf("novel record was absorbed: %+v", adds[0])
	}
	after := m.Stats()
	if after.Tuples != before.Tuples+1 || after.Singletons != before.Singletons+1 {
		t.Fatalf("singleton not created: before %+v after %+v", before, after)
	}

	cands, err := m.Match(novel, 1)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	if len(cands) == 0 || cands[0].Tuple != adds[0].Tuple {
		t.Fatalf("Match after singleton add returned %+v, want tuple %d", cands, adds[0].Tuple)
	}
	if !containsID(cands[0].EntityIDs, adds[0].EntityID) {
		t.Fatalf("candidate %+v missing new entity %d", cands[0], adds[0].EntityID)
	}

	// A second copy of the novel record must now be absorbed into the
	// singleton, forming a matched tuple.
	adds2, err := m.AddRecords([][]string{novel})
	if err != nil {
		t.Fatalf("AddRecords: %v", err)
	}
	if !adds2[0].Absorbed || adds2[0].Tuple != adds[0].Tuple {
		t.Fatalf("second copy not absorbed into singleton: %+v", adds2[0])
	}
	if got := m.Stats().Matched; got != after.Matched+1 {
		t.Fatalf("matched tuples %d, want %d", got, after.Matched+1)
	}
}

func TestMatcherEmptyRecord(t *testing.T) {
	m, _ := geoMatcher(t)
	cands, err := m.Match([]string{"", "  ", ""}, 3)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	if cands != nil {
		t.Fatalf("empty record matched %+v", cands)
	}
	adds, err := m.AddRecords([][]string{{"", "", ""}})
	if err != nil {
		t.Fatalf("AddRecords: %v", err)
	}
	if adds[0].Absorbed {
		t.Fatalf("empty record was absorbed: %+v", adds[0])
	}
}

// TestMatcherRejectsWrongArity: rows not matching the schema width must be
// rejected, not silently padded — a short row would embed the wrong text.
func TestMatcherRejectsWrongArity(t *testing.T) {
	m, _ := geoMatcher(t)
	if _, err := m.Match([]string{"too", "short"}, 1); err == nil {
		t.Fatal("Match accepted a 2-value record against a 3-attr schema")
	}
	if _, err := m.Match([]string{"a", "b", "c", "d"}, 1); err == nil {
		t.Fatal("Match accepted a 4-value record against a 3-attr schema")
	}
	before := m.Stats()
	if _, err := m.AddRecords([][]string{{"ok", "1", "2"}, {"bad row"}}); err == nil {
		t.Fatal("AddRecords accepted a batch with a malformed row")
	}
	if after := m.Stats(); after.Entities != before.Entities {
		t.Fatalf("rejected batch still ingested rows: %d -> %d entities", before.Entities, after.Entities)
	}
}

func TestMatcherSaveLoadRoundTrip(t *testing.T) {
	m, d := geoMatcher(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadMatcher(bytes.NewReader(buf.Bytes()), geoOpts())
	if err != nil {
		t.Fatalf("LoadMatcher: %v", err)
	}
	if loaded.Result() != nil {
		t.Fatal("loaded matcher must not claim a pipeline Result")
	}

	ls, ms := loaded.Stats(), m.Stats()
	if fmt.Sprintf("%+v", ls) != fmt.Sprintf("%+v", ms) {
		t.Fatalf("stats differ after round-trip:\n  saved  %+v\n  loaded %+v", ms, ls)
	}

	byID := d.EntityByID()
	for _, tuple := range m.Result().Tuples[:min(len(m.Result().Tuples), 10)] {
		values := byID[tuple[0]].Values
		want, errW := m.Match(values, 3)
		got, errG := loaded.Match(values, 3)
		if errW != nil || errG != nil {
			t.Fatalf("Match: %v / %v", errW, errG)
		}
		if len(got) != len(want) {
			t.Fatalf("entity %d: %d candidates after load, want %d", tuple[0], len(got), len(want))
		}
		for i := range want {
			if got[i].Tuple != want[i].Tuple || got[i].Distance != want[i].Distance {
				t.Fatalf("entity %d candidate %d: got %+v, want %+v", tuple[0], i, got[i], want[i])
			}
		}
	}

	// The loaded matcher must keep ingesting: same absorb behaviour.
	values := byID[m.Result().Tuples[0][0]].Values
	a, errA := m.AddRecords([][]string{values})
	b, errB := loaded.AddRecords([][]string{values})
	if errA != nil || errB != nil {
		t.Fatalf("AddRecords: %v / %v", errA, errB)
	}
	if a[0].Absorbed != b[0].Absorbed || a[0].Tuple != b[0].Tuple || a[0].EntityID != b[0].EntityID {
		t.Fatalf("AddRecords diverges after round-trip: %+v vs %+v", a[0], b[0])
	}
}

// A matcher file from a format version this build does not read — v6, v5
// and v4 included — must fail with the named ErrFormatVersion, naming the
// versions it reads, not be misparsed into garbage.
func TestLoadMatcherOldVersionFailsWithNamedError(t *testing.T) {
	m, _ := geoMatcher(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, version := range []byte{6, 5, 4, 1} {
		b := append([]byte(nil), buf.Bytes()...)
		b[8] = version // version field, little-endian low byte
		_, err := LoadMatcher(bytes.NewReader(b), geoOpts())
		if !errors.Is(err, ErrFormatVersion) || !strings.Contains(err.Error(), "this build reads 8 and 7") {
			t.Fatalf("version-%d file: %v, want ErrFormatVersion naming versions 8 and 7", version, err)
		}
	}
}

// A truncated matcher file must fail with a clean error wherever the bytes
// run out — in particular inside the bulk arena sections, whose allocation
// must track bytes actually read rather than the header's counts.
func TestLoadMatcherTruncatedFails(t *testing.T) {
	m, _ := geoMatcher(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		cut := int(float64(len(whole)) * frac)
		if _, err := LoadMatcher(bytes.NewReader(whole[:cut]), geoOpts()); err == nil {
			t.Fatalf("LoadMatcher accepted a file truncated to %d/%d bytes", cut, len(whole))
		}
	}
}

func TestLoadMatcherRejectsGarbage(t *testing.T) {
	if _, err := LoadMatcher(strings.NewReader("not a matcher file"), geoOpts()); err == nil {
		t.Fatal("LoadMatcher accepted garbage")
	}
	if _, err := LoadMatcher(strings.NewReader(""), geoOpts()); err == nil {
		t.Fatal("LoadMatcher accepted empty input")
	}
}

func TestLoadMatcherRejectsDimMismatch(t *testing.T) {
	m, _ := geoMatcher(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	opt := geoOpts()
	opt.Encoder = embed.NewHashEncoder(embed.WithDim(64))
	if _, err := LoadMatcher(bytes.NewReader(buf.Bytes()), opt); !errors.Is(err, ErrEncoderMismatch) {
		t.Fatalf("an encoder with the wrong dimensionality: %v, want ErrEncoderMismatch", err)
	}
}

// TestMatcherConcurrentMatchAndAdd races Match calls against AddRecords; run
// with -race this is the regression test for the matcher's locking.
func TestMatcherConcurrentMatchAndAdd(t *testing.T) {
	m, d := geoMatcher(t)
	byID := d.EntityByID()
	res := m.Result()

	var queries [][]string
	for _, tuple := range res.Tuples[:min(len(res.Tuples), 8)] {
		queries = append(queries, byID[tuple[0]].Values)
	}

	const readers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(i+r)%len(queries)]
				if cands, err := m.Match(q, 2); err != nil || len(cands) == 0 {
					t.Errorf("reader %d: no candidates mid-ingest (err %v)", r, err)
					return
				}
				_ = m.Stats()
			}
		}(r)
	}

	for i := 0; i < 30; i++ {
		rows := [][]string{
			queries[i%len(queries)],
			{fmt.Sprintf("novel-%d aa bb", i), fmt.Sprintf("%d", i), "-7.5"},
		}
		if _, err := m.AddRecords(rows); err != nil {
			t.Fatalf("AddRecords: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	if got := m.Stats().Entities; got != d.NumEntities()+60 {
		t.Fatalf("entity count %d after ingest, want %d", got, d.NumEntities()+60)
	}
}

// TestBuildMatcherRefusesWideEncoder: a shard keeps an entity's coordinates
// as uint16s, so an encoder wider than that is refused before the pipeline
// runs, not by a panic when the first shard is made.
func TestBuildMatcherRefusesWideEncoder(t *testing.T) {
	opt := geoOpts()
	opt.Encoder = embed.NewHashEncoder(embed.WithDim(maxSaneDim + 1))
	if m, err := BuildMatcher(smallGeo(t), opt); m != nil || err == nil || !strings.Contains(err.Error(), "at most 65535 dimensions") {
		t.Fatalf("BuildMatcher with a dim-%d encoder: %v", maxSaneDim+1, err)
	}
}
