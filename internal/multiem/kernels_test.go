package multiem

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/vector"
)

// withKernels forces a dispatch path for one test body and restores the
// prior path afterwards. The flips are sequential — no matcher is live
// across a flip — which is the documented SetKernels contract.
func withKernels(t *testing.T, mode string) func() {
	t.Helper()
	prev := vector.Kernels()
	if err := vector.SetKernels(mode); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := vector.SetKernels(prev); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMatcherKernelParity builds the same matcher and ingests the same
// batches under the scalar and AVX2 kernel paths and requires identical
// tuple membership: the SIMD layer is a speed change, not a semantics
// change. (Per-path determinism is what the pipeline promises; membership
// identity additionally holds across paths because the decision thresholds
// sit far from the ~1e-7 FMA reassociation noise. Raw distances are
// compared within that noise, not bit-exactly.)
func TestMatcherKernelParity(t *testing.T) {
	if vector.Kernels() != "avx2" {
		t.Skip("CPU lacks AVX2+FMA (or VECTOR_KERNELS forced scalar)")
	}
	build := func(mode string) (map[string]bool, []Candidate) {
		restore := withKernels(t, mode)
		defer restore()
		m, _ := shardedGeo(t, 2)
		var matches []Candidate
		for batch := 0; batch < 4; batch++ {
			rows := ingestRows(batch, 12)
			if _, err := m.AddRecords(rows); err != nil {
				t.Fatalf("%s: AddRecords: %v", mode, err)
			}
			for _, row := range rows[:3] {
				cands, err := m.Match(row, 2)
				if err != nil {
					t.Fatalf("%s: Match: %v", mode, err)
				}
				matches = append(matches, cands...)
			}
		}
		return tupleKeys(m), matches
	}

	scalarTuples, scalarMatches := build("scalar")
	simdTuples, simdMatches := build("avx2")

	if len(scalarTuples) != len(simdTuples) {
		t.Fatalf("tuple counts diverge: scalar %d vs avx2 %d", len(scalarTuples), len(simdTuples))
	}
	for k := range scalarTuples {
		if !simdTuples[k] {
			t.Fatalf("tuple %s exists on scalar path but not avx2", k)
		}
	}
	// Candidate membership and ranking must be identical; the reported
	// distances may differ by FMA reassociation noise, bounded far below
	// any decision threshold.
	if len(scalarMatches) != len(simdMatches) {
		t.Fatalf("match counts diverge: scalar %d vs avx2 %d", len(scalarMatches), len(simdMatches))
	}
	for i, sc := range scalarMatches {
		sd := simdMatches[i]
		if fmt.Sprintf("%v", sc.EntityIDs) != fmt.Sprintf("%v", sd.EntityIDs) {
			t.Fatalf("match %d members diverge: scalar %v vs avx2 %v", i, sc.EntityIDs, sd.EntityIDs)
		}
		if diff := math.Abs(float64(sc.Distance) - float64(sd.Distance)); diff > 1e-4 {
			t.Fatalf("match %d distance diverges: scalar %v vs avx2 %v", i, sc.Distance, sd.Distance)
		}
	}
}

// TestReplayAcrossKernels: a log written under the AVX2 kernels replays under
// the scalar ones. The logged distances then differ from the recomputed ones
// in the 1e-7 digit, which planFromRecord's tolerance must absorb, and every
// row lands in the tuple its client was acknowledged with.
func TestReplayAcrossKernels(t *testing.T) {
	if vector.Kernels() != "avx2" {
		t.Skip("CPU lacks AVX2+FMA (or VECTOR_KERNELS forced scalar)")
	}
	const shards = 2
	load := baseLoader(t, smallGeo(t), shards)
	cfg := WALConfig{Dir: t.TempDir(), Fsync: "off"}
	_, acked, _ := loggedHistory(t, cfg.Dir, shards, load) // absorbs rows, or it fails

	defer withKernels(t, "scalar")()
	recovered, err := RecoverMatcher(cfg, durOpts(shards), load)
	if err != nil {
		t.Fatalf("replay under the scalar kernels: %v", err)
	}
	defer recovered.CloseWAL()
	tupleOf := make(map[int]int)
	for c := recovered.TupleCursor(1); c.Next(); {
		for _, id := range c.Members() {
			tupleOf[id] = c.ID()
		}
	}
	for _, r := range acked {
		if got, ok := tupleOf[r.EntityID]; !ok || got != r.Tuple {
			t.Fatalf("entity %d was acknowledged in tuple %d, recovered in %d (present %v)", r.EntityID, r.Tuple, got, ok)
		}
	}
}
