// Package par is the module's one fan-out: every loop that runs its items on
// several goroutines — the parallel merging and pruning of MultiEM(parallel)
// (§III-E), the exact and HNSW joins, batch encoding, the matcher's per-shard
// work — calls For, and Workers is the one rule that turns a worker option
// into a goroutine count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker count for n items: workers <= 0 means
// GOMAXPROCS, and the result is clamped to [1, n] (1 when n <= 0).
func Workers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// For calls fn(w, i) exactly once for every i in [0, n) and returns when all
// calls have. w in [0, Workers(n, workers)) names the worker making the call,
// so fn may index per-worker scratch by it; no two calls with the same w run
// at once.
//
// One worker runs every item on the caller, in index order. More than one
// start as goroutines — the caller only waits — and claim blocks of
// blockSize consecutive items from one shared counter, so a slow item or a
// descheduled worker delays only its own block. The order in which items run
// is unspecified: fn must write nothing another index reads.
func For(n, workers int, fn func(w, i int)) {
	workers = Workers(n, workers)
	if workers == 1 {
		for i := range n {
			fn(0, i)
		}
		return
	}
	block := blockSize(n, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(block))) - block
				if lo >= n {
					return
				}
				for i := lo; i < min(lo+block, n); i++ {
					fn(w, i)
				}
			}
		}()
	}
	wg.Wait()
}

// blockSize is how many consecutive items a worker claims at a time: about
// eight claims per worker, enough to even out uneven items, while items of a
// few microseconds are not fought over one at a time. Small loops (a batch
// of rows, a matcher's shards) claim single items.
func blockSize(n, workers int) int {
	return max(1, n/(8*workers))
}
