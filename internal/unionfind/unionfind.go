// Package unionfind provides a disjoint-set forest with union by rank and
// path compression. The merging phase uses it to aggregate matched pairs
// into tuples by transitivity (Alg. 3 line 8): if A matches B and B matches
// C, the three end up in one set.
package unionfind

// UF is a disjoint-set forest over the dense ids [0, n), each starting as a
// singleton: the merging phase numbers its two tables' rows that way.
type UF struct {
	parent []int32
	rank   []uint8
	count  int // number of distinct sets
}

// New returns a forest of n singletons {0}, ..., {n-1}.
func New(n int) *UF {
	u := &UF{parent: make([]int32, n), rank: make([]uint8, n), count: n}
	for id := range u.parent {
		u.parent[id] = int32(id)
	}
	return u
}

// Find returns the canonical representative of id's set.
func (u *UF) Find(id int) int {
	root := int32(id)
	for u.parent[root] != root {
		root = u.parent[root]
	}
	// Path compression.
	for x := int32(id); u.parent[x] != root; {
		u.parent[x], x = root, u.parent[x]
	}
	return int(root)
}

// Union merges the sets of a and b, returning the resulting root.
func (u *UF) Union(a, b int) int {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return ra
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = int32(ra)
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	u.count--
	return ra
}

// Same reports whether a and b are in one set.
func (u *UF) Same(a, b int) bool { return u.Find(a) == u.Find(b) }

// Count returns the number of distinct sets.
func (u *UF) Count() int { return u.count }

// Len returns the number of ids, n.
func (u *UF) Len() int { return len(u.parent) }

// Sets returns all sets with at least minSize members, each ascending,
// ordered by their smallest member. One pass over the ids in order finds
// each set at its smallest member and a second one fills the sets in id
// order, so neither needs a sort.
func (u *UF) Sets(minSize int) [][]int {
	// at[root] is the root's set's index in out, plus one; 0 until its
	// smallest member is reached.
	at := make([]int32, len(u.parent))
	var sizes []int
	for id := range u.parent {
		r := u.Find(id)
		if at[r] == 0 {
			sizes = append(sizes, 0)
			at[r] = int32(len(sizes))
		}
		sizes[at[r]-1]++
	}
	out := make([][]int, len(sizes))
	members := make([]int, len(u.parent))
	for g, n := range sizes {
		out[g], members = members[:0:n], members[n:]
	}
	for id, r := range u.parent { // every parent is a root after the first pass
		g := at[r] - 1
		out[g] = append(out[g], id)
	}
	kept := out[:0]
	for _, set := range out {
		if len(set) >= minSize {
			kept = append(kept, set)
		}
	}
	return kept
}
