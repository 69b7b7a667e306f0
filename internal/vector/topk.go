package vector

// Neighbor is a search result: an item index with its distance from the
// query. Smaller Dist means closer.
type Neighbor struct {
	ID   int
	Dist float32
}

// TopK accumulates the K smallest-distance neighbours seen so far. It is a
// bounded max-heap keyed lexicographically on (distance, ID): the root is
// the current worst kept neighbour, and a new candidate displaces it when
// strictly closer — or equally distant with a smaller ID. The kept set is
// therefore a deterministic function of the pushed multiset, independent of
// push order, which is what lets fan-out searches merge per-shard results
// without the cut at k depending on traversal order.
//
// The zero value is ready once Reset sets k; NewTopK returns one ready to
// use.
type TopK struct {
	k    int
	heap []Neighbor // max-heap on (Dist, ID)
}

// NewTopK returns an accumulator keeping the k nearest neighbours.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("vector: TopK requires k > 0")
	}
	return &TopK{k: k, heap: make([]Neighbor, 0, k)}
}

// Reset empties the accumulator and re-targets it at k, reusing the backing
// array. It makes TopK poolable across searches.
func (t *TopK) Reset(k int) {
	if k <= 0 {
		panic("vector: TopK requires k > 0")
	}
	t.k = k
	t.heap = t.heap[:0]
}

// Len reports how many neighbours are currently held (≤ k).
func (t *TopK) Len() int { return len(t.heap) }

// Full reports whether k neighbours are held.
func (t *TopK) Full() bool { return len(t.heap) == t.k }

// Worst returns the largest kept distance. It panics when empty.
func (t *TopK) Worst() float32 { return t.heap[0].Dist }

// worseThan reports whether a ranks strictly worse than b: farther, or
// equally far with a larger ID. It is the heap order and the displacement
// rule, so retention ties break exactly like the output order does.
func worseThan(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.ID > b.ID
}

// Push offers a candidate. It returns true if the candidate was kept.
func (t *TopK) Push(id int, dist float32) bool {
	n := Neighbor{ID: id, Dist: dist}
	if len(t.heap) < t.k {
		t.heap = append(t.heap, n)
		t.up(len(t.heap) - 1)
		return true
	}
	if !worseThan(t.heap[0], n) {
		return false
	}
	t.heap[0] = n
	t.down(0)
	return true
}

// ResultsAppend drains the accumulator into dst in rank order — increasing
// distance, ties broken by increasing ID — and leaves it empty, its backing
// array kept for the next pushes: the max-heap is popped in place (largest
// first, filled from the back) and equal-distance runs are ID-fixed with an
// insertion pass.
func (t *TopK) ResultsAppend(dst []Neighbor) []Neighbor {
	n := len(t.heap)
	start := len(dst)
	dst = append(dst, t.heap...) // grow dst by n; contents overwritten below
	out := dst[start:]
	for i := n - 1; i >= 0; i-- {
		// Pop the current worst into the last open slot.
		top := t.heap[0]
		last := len(t.heap) - 1
		t.heap[0] = t.heap[last]
		t.heap = t.heap[:last]
		t.down(0)
		out[i] = top
	}
	t.heap = t.heap[:0]
	// Heap pop order is arbitrary within equal distances; restore the ID
	// tie-break. Runs of equal distance are adjacent, so one insertion pass
	// is cheap and usually a no-op.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && out[j].Dist == out[j-1].Dist && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return dst
}

func (t *TopK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worseThan(t.heap[i], t.heap[parent]) {
			return
		}
		t.heap[parent], t.heap[i] = t.heap[i], t.heap[parent]
		i = parent
	}
}

func (t *TopK) down(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && worseThan(t.heap[l], t.heap[worst]) {
			worst = l
		}
		if r < n && worseThan(t.heap[r], t.heap[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.heap[i], t.heap[worst] = t.heap[worst], t.heap[i]
		i = worst
	}
}

// MinHeap is an unbounded min-heap of Neighbors keyed on distance, used as
// the candidate frontier in graph-based search.
type MinHeap struct {
	heap []Neighbor
}

// Len reports the number of held neighbours.
func (h *MinHeap) Len() int { return len(h.heap) }

// Reset empties the heap, keeping the backing array for reuse.
func (h *MinHeap) Reset() { h.heap = h.heap[:0] }

// Push adds a neighbour.
func (h *MinHeap) Push(n Neighbor) {
	h.heap = append(h.heap, n)
	i := len(h.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.heap[parent].Dist <= h.heap[i].Dist {
			break
		}
		h.heap[parent], h.heap[i] = h.heap[i], h.heap[parent]
		i = parent
	}
}

// Min returns the closest neighbour without removing it. It panics when
// empty.
func (h *MinHeap) Min() Neighbor { return h.heap[0] }

// Pop removes and returns the closest neighbour. It panics when empty.
func (h *MinHeap) Pop() Neighbor {
	top := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.heap = h.heap[:last]
	i, n := 0, len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.heap[l].Dist < h.heap[smallest].Dist {
			smallest = l
		}
		if r < n && h.heap[r].Dist < h.heap[smallest].Dist {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.heap[i], h.heap[smallest] = h.heap[smallest], h.heap[i]
		i = smallest
	}
	return top
}
