package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro"
)

// record is one row of the key pool: a generated entity and the
// ground-truth cluster ("key") it belongs to. Two records with the same key
// are corruptions of one real-world entity.
type record struct {
	values []string
	key    int
}

// matchOp is one POST /match: the query record and its pre-encoded body.
type matchOp struct {
	rec  record
	body []byte
}

// addOp is one POST /add batch.
type addOp struct {
	recs []record
	body []byte
}

// corpus is everything one run feeds the program, all derived from the
// seed: the batch pipeline's dataset, the rows that prepopulate the serving
// state, and the exact op sequences of the read and write phases. The
// program under test sees only these inputs, never the seed.
//
// datagen.Stream would be the natural row source but does not reveal the
// key behind a record, and key recall and pair-F1 need it; so rows are the
// entities of a generated Music-200 dataset, whose truth tuples are the
// keys. A key therefore has at most five distinct corruptions, and a skewed
// draw repeats them exactly — a hot entity re-delivered by its feeds.
type corpus struct {
	pipeline *repro.Dataset // Phase A input
	seed     *repro.Dataset // BuildMatcher input of the serving state
	prepop   []record
	warmup   []matchOp   // untimed; also the HTTP vs in-process parity sample
	reads    [][]matchOp // per client
	writes   []addOp
	// prepopKeys marks keys with at least one prepopulated record: every
	// query is drawn from those, so each has a right answer in the state.
	prepopKeys map[int]bool
}

// Music-200 at scale 1 has 50 000 truth tuples of mean size 3.03 plus 48 000
// singletons. With the role assignment below, 100 tuples and their 96
// singletons yield 148 prepopulation rows and 173 write rows out of 399
// entities; these ratios convert the wanted pool sizes to a generation scale.
const (
	musicTuplesAtFullScale = 50_000
	prepopPerTuple         = 1.48
	writesPerTuple         = 1.73
)

func newCorpus(sp spec, seed int64) (*corpus, error) {
	c := &corpus{prepopKeys: map[int]bool{}}
	var err error
	if c.pipeline, err = repro.GenerateDataset("Music-20", sp.pipelineScale, seed); err != nil {
		return nil, err
	}
	if c.seed, err = repro.GenerateDataset("Music-20", seedScale, seed); err != nil {
		return nil, err
	}

	writeRows := sp.writeBatches * sp.batchRows
	tuples := math.Max(float64(sp.prepop)/prepopPerTuple, float64(writeRows)/writesPerTuple)
	scale := (tuples*1.15 + 200) / musicTuplesAtFullScale
	if scale > 1 {
		return nil, fmt.Errorf("workload %s needs %.0f keys, more than Music-200 holds", sp.name, tuples)
	}
	pool, err := repro.GenerateDataset("Music-200", scale, seed+1)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	prepopPool, writePool, queryPool := assignRoles(pool, rng, sp.skew > 0)
	if len(prepopPool) < sp.prepop || len(writePool) < writeRows {
		return nil, fmt.Errorf("pool too small: %d prepop rows for %d, %d write rows for %d",
			len(prepopPool), sp.prepop, len(writePool), writeRows)
	}
	c.prepop = prepopPool[:sp.prepop]
	for _, r := range c.prepop {
		c.prepopKeys[r.key] = true
	}
	writePool = writePool[:writeRows]
	answerable := queryPool[:0:0]
	for _, r := range queryPool {
		if c.prepopKeys[r.key] {
			answerable = append(answerable, r)
		}
	}
	if len(answerable) == 0 {
		return nil, fmt.Errorf("no held-out record shares a key with the prepopulated state")
	}

	drawWrite := newSampler(rng, writePool, sp.skew)
	if sp.skew == 0 {
		// Each row once, in an order unrelated to the key order.
		rng.Shuffle(len(writePool), func(i, j int) { writePool[i], writePool[j] = writePool[j], writePool[i] })
	}
	for b := 0; b < sp.writeBatches; b++ {
		batch := make([]record, sp.batchRows)
		for i := range batch {
			if sp.skew == 0 {
				batch[i] = writePool[b*sp.batchRows+i]
			} else {
				batch[i] = drawWrite()
			}
		}
		c.writes = append(c.writes, newAddOp(batch))
	}
	drawQuery := newSampler(rng, answerable, sp.skew)
	for i := 0; i < paritySample; i++ {
		c.warmup = append(c.warmup, newMatchOp(drawQuery()))
	}
	perClient := sp.readsPerClient
	if sp.concurrent {
		// The readers cycle through this many distinct ops until the
		// writer is done.
		perClient = 4096
	}
	for cl := 0; cl < sp.readClients; cl++ {
		ops := make([]matchOp, perClient)
		for i := range ops {
			ops[i] = newMatchOp(drawQuery())
		}
		c.reads = append(c.reads, ops)
	}
	return c, nil
}

// assignRoles splits a dataset's entities into the three row pools, key by
// key in a seeded order. A key's first record is prepopulated, so the key
// has a right answer in the state; its further records alternate between
// the write pool (they should absorb) and the held-out query pool.
// Singletons alternate between prepopulation and writes (those open new
// tuples). With hotFirst the keys that reach all three pools come first, so
// a skewed draw, which ranks keys in pool order, heats the same keys for the
// readers and the writer.
func assignRoles(d *repro.Dataset, rng *rand.Rand, hotFirst bool) (prepop, writes, queries []record) {
	ents := d.AllEntities()
	byID := make(map[int]*repro.Entity, len(ents))
	inTuple := make(map[int]bool, len(ents))
	for _, e := range ents {
		byID[e.ID] = e
	}
	groups := make([][]int, 0, len(d.Truth)+len(ents)/4)
	for _, tuple := range d.Truth {
		groups = append(groups, tuple)
		for _, id := range tuple {
			inTuple[id] = true
		}
	}
	for _, e := range ents {
		if !inTuple[e.ID] {
			groups = append(groups, []int{e.ID})
		}
	}
	rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	if hotFirst {
		sort.SliceStable(groups, func(i, j int) bool { return len(groups[i]) >= 3 && len(groups[j]) < 3 })
	}
	singles := 0
	for key, g := range groups {
		for j, id := range g {
			r := record{values: byID[id].Values, key: key}
			switch {
			case len(g) == 1:
				if singles++; singles%2 == 1 {
					prepop = append(prepop, r)
				} else {
					writes = append(writes, r)
				}
			case j == 0:
				prepop = append(prepop, r)
			case j%2 == 1:
				writes = append(writes, r)
			default:
				queries = append(queries, r)
			}
		}
	}
	return prepop, writes, queries
}

// newSampler returns the draw over pool: uniform over records when skew is
// 0, else Zipf over the pool's keys (ranked in pool order, which is already
// shuffled) followed by a uniform pick among that key's records.
func newSampler(rng *rand.Rand, pool []record, skew float64) func() record {
	if skew == 0 {
		return func() record { return pool[rng.Intn(len(pool))] }
	}
	var keys []int
	byKey := map[int][]record{}
	for _, r := range pool {
		if _, seen := byKey[r.key]; !seen {
			keys = append(keys, r.key)
		}
		byKey[r.key] = append(byKey[r.key], r)
	}
	zipf := rand.NewZipf(rng, skew, zipfV, uint64(len(keys)-1))
	return func() record {
		members := byKey[keys[zipf.Uint64()]]
		return members[rng.Intn(len(members))]
	}
}

func newMatchOp(r record) matchOp {
	body, err := json.Marshal(struct {
		Values []string `json:"values"`
		K      int      `json:"k"`
	}{r.values, matchK})
	if err != nil {
		panic(err) // strings and an int always marshal
	}
	return matchOp{rec: r, body: body}
}

func newAddOp(batch []record) addOp {
	rows := make([][]string, len(batch))
	for i, r := range batch {
		rows[i] = r.values
	}
	body, err := json.Marshal(struct {
		Records [][]string `json:"records"`
	}{rows})
	if err != nil {
		panic(err)
	}
	return addOp{recs: batch, body: body}
}

// rows returns the batch as AddRecords input.
func (a addOp) rows() [][]string {
	out := make([][]string, len(a.recs))
	for i, r := range a.recs {
		out[i] = r.values
	}
	return out
}
