package multiem

// TupleCursor streams tuples out of one pinned epoch view in global tuple-ID
// order (shard, then local index) without materializing the whole result the
// way Tuples does. The cursor pins the matcherView it was created from, so a
// long-running walk — a server streaming a million-tuple state, a snapshot
// serializer — observes exactly one epoch no matter how many batches commit
// meanwhile, and costs no locks: the chunked tuple tables underneath are
// frozen spines whose chunks concurrent writers copy before mutating.
//
//	for c := m.TupleCursor(2); c.Next(); {
//		fmt.Println(c.ID(), c.Members(), c.Confidence())
//	}
type TupleCursor struct {
	shards     []*shardView
	epoch      uint64
	minMembers int

	s  int // shard currently being walked
	i  int // next local index within shard s
	sv *shardView
	ts *tupleState
	id int
}

// TupleCursor pins the current epoch view and returns a cursor over its
// tuples with at least minMembers members: 2 walks matched tuples (what
// Tuples reports), <= 1 includes singletons (what a snapshot serializer
// needs).
func (m *Matcher) TupleCursor(minMembers int) *TupleCursor {
	v := m.state.Load()
	return &TupleCursor{shards: v.shards, epoch: v.epoch, minMembers: minMembers}
}

// Next advances to the next qualifying tuple, returning false when the view
// is exhausted. The accessors below are valid only after Next returns true.
func (c *TupleCursor) Next() bool {
	for c.s < len(c.shards) {
		sv := c.shards[c.s]
		for c.i < sv.tuples.len() {
			local := c.i
			c.i++
			if ts := sv.tuples.at(local); len(ts.members) >= c.minMembers {
				c.sv, c.ts, c.id = sv, ts, globalTupleID(c.s, local)
				return true
			}
		}
		c.s++
		c.i = 0
	}
	c.sv, c.ts = nil, nil
	return false
}

// Epoch reports the epoch of the pinned view the cursor walks.
func (c *TupleCursor) Epoch() uint64 { return c.epoch }

// ID returns the current tuple's stable global ID.
func (c *TupleCursor) ID() int { return c.id }

// Size returns the current tuple's member count without allocating.
func (c *TupleCursor) Size() int { return len(c.ts.members) }

// Members returns the current tuple's member entity IDs, sorted ascending.
// The slice is freshly allocated and owned by the caller.
func (c *TupleCursor) Members() []int { return c.sv.memberIDs(c.ts.members) }

// Confidence returns the current tuple's merge-path confidence.
func (c *TupleCursor) Confidence() float64 { return confidenceFrom(c.ts.maxJoinDist) }
