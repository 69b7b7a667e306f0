package par

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"testing"
)

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ n, workers, want int }{
		{0, 3, 1},
		{-2, 3, 1},
		{1, 0, 1},
		{7, 1, 1},
		{7, 3, 3},
		{7, 12, 7},
		{1 << 20, 0, procs},
		{1 << 20, -1, procs},
		{2, 0, min(2, procs)},
	} {
		if got := Workers(tc.n, tc.workers); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.n, tc.workers, got, tc.want)
		}
	}
}

// call is one fn(w, i) as For made it.
type call struct{ w, i int }

// record runs For and returns every call it made, in the order each worker
// made them (workers interleaved arbitrarily).
func record(n, workers int) []call {
	var mu sync.Mutex
	var calls []call
	For(n, workers, func(w, i int) {
		mu.Lock()
		calls = append(calls, call{w, i})
		mu.Unlock()
	})
	return calls
}

func TestForCallsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 3, n + 5} {
			nw := Workers(n, workers)
			calls := record(n, workers)
			seen := make([]int, n)
			for _, c := range calls {
				if c.i < 0 || c.i >= n {
					t.Fatalf("n=%d workers=%d: index %d out of range", n, workers, c.i)
				}
				if c.w < 0 || c.w >= nw {
					t.Fatalf("n=%d workers=%d: worker %d outside [0, %d)", n, workers, c.w, nw)
				}
				seen[c.i]++
			}
			for i, k := range seen {
				if k != 1 {
					t.Fatalf("n=%d workers=%d: index %d called %d times", n, workers, i, k)
				}
			}
		}
	}
}

// Each block of blockSize consecutive items belongs to one worker, which
// runs it in ascending order: workers never split or share a block.
func TestForBlocksNeverOverlap(t *testing.T) {
	for _, n := range []int{7, 100, 1000, 4099} {
		for _, workers := range []int{2, 3, 8} {
			nw := Workers(n, workers)
			block := blockSize(n, nw)
			owner := make([]int, n)
			last := make(map[int]int) // worker -> last index it ran
			for _, c := range record(n, workers) {
				owner[c.i] = c.w
				if prev, ok := last[c.w]; ok && c.i/block == prev/block && c.i != prev+1 {
					t.Fatalf("n=%d workers=%d: worker %d ran %d after %d inside one block", n, workers, c.w, c.i, prev)
				}
				last[c.w] = c.i
			}
			for i := range n {
				if first := i / block * block; owner[i] != owner[first] {
					t.Fatalf("n=%d workers=%d: block at %d split between workers %d and %d",
						n, workers, first, owner[first], owner[i])
				}
			}
		}
	}
}

func TestBlockSize(t *testing.T) {
	for _, tc := range []struct{ n, workers, want int }{
		{16, 2, 1}, // an ingest batch over two shards claims row by row
		{4, 4, 1},  // a shard fan-out claims shard by shard
		{1000, 2, 62},
		{1000, 4, 31},
	} {
		if got := blockSize(tc.n, tc.workers); got != tc.want {
			t.Errorf("blockSize(%d, %d) = %d, want %d", tc.n, tc.workers, got, tc.want)
		}
	}
}

// goid reads the calling goroutine's ID from its stack header.
func goid() int {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, err := strconv.Atoi(string(b[:bytes.IndexByte(b, ' ')]))
	if err != nil {
		panic(err)
	}
	return id
}

func TestForSingleWorkerRunsInlineInOrder(t *testing.T) {
	caller := goid()
	for _, tc := range []struct{ n, workers int }{{5, 1}, {1, 0}, {1, 4}, {9, -3}} {
		if Workers(tc.n, tc.workers) != 1 {
			continue // GOMAXPROCS > 1: not a single-worker loop here
		}
		var got []int
		For(tc.n, tc.workers, func(w, i int) {
			if id := goid(); id != caller || w != 0 {
				t.Errorf("n=%d workers=%d: item %d ran on goroutine %d as worker %d, want the caller %d as worker 0",
					tc.n, tc.workers, i, id, w, caller)
			}
			got = append(got, i)
		})
		for i, v := range got {
			if v != i {
				t.Fatalf("n=%d workers=%d: ran %v, want index order", tc.n, tc.workers, got)
			}
		}
		if len(got) != tc.n {
			t.Fatalf("n=%d workers=%d: ran %d items", tc.n, tc.workers, len(got))
		}
	}
}

// More than one worker: every worker is a goroutine of its own, and at most
// Workers(n, workers) of them run fn at once.
func TestForSpawnsWorkersOffTheCaller(t *testing.T) {
	caller := goid()
	var mu sync.Mutex
	ids := map[int]int{} // goroutine -> worker
	For(64, 3, func(w, i int) {
		id := goid()
		mu.Lock()
		defer mu.Unlock()
		if id == caller {
			t.Errorf("item %d ran on the caller", i)
		}
		if prev, ok := ids[id]; ok && prev != w {
			t.Errorf("goroutine %d ran as workers %d and %d", id, prev, w)
		}
		ids[id] = w
	})
	if len(ids) > 3 {
		t.Fatalf("%d goroutines ran items, want at most 3", len(ids))
	}
}
