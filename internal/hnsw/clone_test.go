package hnsw

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/race"
	"repro/internal/vector"
)

// TestCloneFrozenSnapshot: a Clone must answer every query exactly like the
// index it was taken from, serialize to identical bytes, refuse Add, and —
// the property the matcher's epoch views are built on — keep answering from
// its snapshot while the original takes further Adds, including concurrent
// ones (run under -race in CI).
func TestCloneFrozenSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const dim = 16
	vecs := randUnitVecs(rng, 300, dim)
	queries := randUnitVecs(rng, 20, dim)

	ix := New(dim, Config{M: 8, EfConstruction: 60})
	for i, v := range vecs {
		if err := ix.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}
	c := ix.Clone()

	if c.Len() != ix.Len() || c.Dim() != ix.Dim() {
		t.Fatalf("clone shape (%d, %d) != original (%d, %d)", c.Len(), c.Dim(), ix.Len(), ix.Dim())
	}
	if err := c.Add(999, vecs[0]); err == nil {
		t.Fatal("Add on a frozen clone must fail")
	}
	mustPanicWith(t, "hnsw: insert into a frozen Clone", func() { c.Append(999, vecs[0], vector.Ref{}) })

	frozen := make([]string, len(queries))
	for qi, q := range queries {
		want := ix.Search(q, 10, 40)
		got := c.Search(q, 10, 40)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("query %d: clone results differ:\n  original %v\n  clone    %v", qi, want, got)
		}
		frozen[qi] = fmt.Sprintf("%v", got)
	}

	var origBytes, cloneBytes bytes.Buffer
	if err := ix.Save(&origBytes); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(&cloneBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(origBytes.Bytes(), cloneBytes.Bytes()) {
		t.Fatalf("Save bytes differ: %d vs %d", origBytes.Len(), cloneBytes.Len())
	}

	// The original keeps growing while the clone serves concurrently; the
	// clone's answers must stay exactly its snapshot's.
	extra := randUnitVecs(rng, 200, dim)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, v := range extra {
			if err := ix.Add(len(vecs)+i, v); err != nil {
				t.Errorf("Add during clone reads: %v", err)
				return
			}
		}
	}()
	for round := 0; round < 50; round++ {
		for qi, q := range queries {
			if got := fmt.Sprintf("%v", c.Search(q, 10, 40)); got != frozen[qi] {
				t.Fatalf("round %d query %d: clone drifted after original Adds:\n  frozen %s\n  now    %s", round, qi, frozen[qi], got)
			}
		}
	}
	wg.Wait()

	if c.Len() != len(vecs) {
		t.Fatalf("clone grew to %d entries, want frozen %d", c.Len(), len(vecs))
	}
	if ix.Len() != len(vecs)+len(extra) {
		t.Fatalf("original has %d entries, want %d", ix.Len(), len(vecs)+len(extra))
	}
}

// TestCloneSearchReusesWarmContext: the matcher publishes a Clone per epoch
// and a reader's first Search on it must find a search context already sized
// to the index. With a context pool per clone that Search allocated and
// zeroed a visit set of 4 bytes a node, once per view per shard.
func TestCloneSearchReusesWarmContext(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const n, dim = 20_000, 4
	rng := rand.New(rand.NewSource(9))
	ix := New(dim, Config{M: 4, EfConstruction: 8})
	for i, v := range randUnitVecs(rng, n, dim) {
		if err := ix.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}
	q := randUnitVecs(rng, 1, dim)[0]
	// A collection empties sync.Pool, and an item put back on one P is out
	// of reach of a Get that runs on another; keep both out of the window.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ix.Clone().Search(q, 5, 20) // warm the shared pool

	c := ix.Clone()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.Search(q, 5, 20)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4*n {
		t.Fatalf("first Search on a fresh Clone of a warmed %d-node index allocated %d bytes, want < %d", n, got, 4*n)
	}
}

// TestMoveOnKeepsTheIndex: moving the node rows onto another data arena
// changes no answer, no byte Save writes and no later insert, and a Clone
// taken before the move keeps answering from the rows it had. A node the
// alias names a row of the new arena for stores no words there.
func TestMoveOnKeepsTheIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const dim = 16
	vecs := randUnitVecs(rng, 200, dim)
	queries := randUnitVecs(rng, 20, dim)
	twin, moved := New(dim, Config{M: 8, EfConstruction: 60}), New(dim, Config{M: 8, EfConstruction: 60})
	for i, v := range vecs[:150] {
		twin.Add(i, v)
		moved.Add(i, v)
	}
	before := moved.Clone()
	answers := func(ix *Index) string {
		var b bytes.Buffer
		for _, q := range queries {
			fmt.Fprintf(&b, "%v\n", ix.Search(q, 10, 40))
		}
		return b.String()
	}
	want := answers(moved)

	// The new arena holds vecs[7] already; node 7, whose row it is, shares it.
	data := vector.NewRowData(dim)
	other := vector.NewSparseRowsOn(data)
	other.Append(vecs[7])
	moved.MoveOn(data, func(node int, w []uint32) vector.Ref {
		if node == 7 {
			return other.Ref(0)
		}
		return vector.Ref{}
	})
	if moved.Vectors().Data() != data || moved.Vectors().Offset(7) != other.Offset(0) {
		t.Fatal("the moved index does not read its rows from the new arena, or node 7 has a copy of its own")
	}
	if got := answers(moved); got != want {
		t.Fatalf("the moved index answers\n%s\nwant\n%s", got, want)
	}
	if got := answers(before); got != want {
		t.Fatal("a clone taken before the move answers otherwise")
	}
	for i, v := range vecs[150:] {
		twin.Add(150+i, v)
		moved.Add(150+i, v)
	}
	var a, b bytes.Buffer
	if err := twin.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := moved.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("after the move and more inserts, the index saves other bytes than its twin")
	}
}
