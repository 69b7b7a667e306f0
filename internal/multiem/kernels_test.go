package multiem

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/vector"
)

// defaultKernels selects the kernel path the test binary started on —
// VECTOR_KERNELS, or auto — and reports it, whatever an earlier test left
// selected.
func defaultKernels(t *testing.T) string {
	mode := os.Getenv("VECTOR_KERNELS")
	if mode == "" {
		mode = "auto"
	}
	if err := vector.SetKernels(mode); err != nil {
		t.Fatal(err)
	}
	return vector.Kernels()
}

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
// batches under the scalar and AVX2 kernel paths and requires the same
// tuples and the same Match replies, distances to the bit: the portable
// kernels sum in the assembly's order, so the SIMD layer is a speed change.
func TestMatcherKernelParity(t *testing.T) {
	if defaultKernels(t) == "scalar" {
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
	if len(scalarMatches) != len(simdMatches) {
		t.Fatalf("match counts diverge: scalar %d vs avx2 %d", len(scalarMatches), len(simdMatches))
	}
	for i, sc := range scalarMatches {
		sd := simdMatches[i]
		if fmt.Sprintf("%v", sc.EntityIDs) != fmt.Sprintf("%v", sd.EntityIDs) {
			t.Fatalf("match %d members diverge: scalar %v vs avx2 %v", i, sc.EntityIDs, sd.EntityIDs)
		}
		if math.Float32bits(sc.Distance) != math.Float32bits(sd.Distance) {
			t.Fatalf("match %d distance diverges: scalar %v vs avx2 %v", i, sc.Distance, sd.Distance)
		}
	}
}

// TestReplayAcrossKernels: a log written under the AVX2 kernels replays under
// the scalar ones to the very state the primary reached: the recomputed
// distances have the logged bits, every row lands in the tuple its client
// was acknowledged with, and the recovered matcher saves the primary's bytes.
func TestReplayAcrossKernels(t *testing.T) {
	if defaultKernels(t) == "scalar" {
		t.Skip("CPU lacks AVX2+FMA (or VECTOR_KERNELS forced scalar)")
	}
	const shards = 2
	load := baseLoader(t, smallGeo(t), shards)
	cfg := WALConfig{Dir: t.TempDir(), Fsync: "off"}
	primary, acked, _ := loggedHistory(t, cfg.Dir, shards, load) // absorbs rows, or it fails
	want := saveBytes(t, primary)

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
	if !bytes.Equal(saveBytes(t, recovered), want) {
		t.Fatal("the matcher recovered under the scalar kernels saves other bytes than the primary")
	}
}
