package vector

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestStoreAppendAt(t *testing.T) {
	s := NewStore(3)
	if s.Len() != 0 {
		t.Fatalf("fresh store Len = %d", s.Len())
	}
	i := s.Append([]float32{1, 2, 3})
	j := s.Append([]float32{4, 5, 6})
	if i != 0 || j != 1 || s.Len() != 2 {
		t.Fatalf("append rows %d, %d, Len %d", i, j, s.Len())
	}
	if got := s.At(1); !reflect.DeepEqual(got, []float32{4, 5, 6}) {
		t.Fatalf("At(1) = %v", got)
	}
	// Rows are copies: mutating the source must not change the arena.
	src := []float32{7, 8, 9}
	s.Append(src)
	src[0] = 99
	if s.At(2)[0] != 7 {
		t.Fatal("Append must copy, not alias")
	}
}

func TestStoreAtIsCapped(t *testing.T) {
	s := NewStore(2)
	s.Append([]float32{1, 2})
	s.Append([]float32{3, 4})
	row := s.At(0)
	// A three-indexed row cannot grow into its neighbour.
	row = append(row, 99)
	if s.At(1)[0] != 3 {
		t.Fatalf("append to a row clobbered the next row: %v", s.At(1))
	}
	_ = row
}

func TestStoreGrowAndSetRow(t *testing.T) {
	s := NewStoreWithCap(2, 4)
	s.Grow(3)
	if s.Len() != 3 {
		t.Fatalf("Len after Grow(3) = %d", s.Len())
	}
	for i := 0; i < 3; i++ {
		if n := Norm(s.At(i)); n != 0 {
			t.Fatalf("grown row %d not zero: %v", i, s.At(i))
		}
	}
	s.SetRow(1, []float32{5, 6})
	if !reflect.DeepEqual(s.At(1), []float32{5, 6}) {
		t.Fatalf("SetRow: %v", s.At(1))
	}
	if len(s.Raw()) != 6 {
		t.Fatalf("Raw len = %d, want 6", len(s.Raw()))
	}
}

func TestStoreDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Append with wrong dim must panic")
		}
	}()
	NewStore(3).Append([]float32{1})
}

func TestAddScaled(t *testing.T) {
	dst := []float32{1, 2, 3}
	AddScaled(dst, []float32{10, 20, 30}, 0.5)
	if !reflect.DeepEqual(dst, []float32{6, 12, 18}) {
		t.Fatalf("AddScaled = %v", dst)
	}
}

// ResultsAppend must return the k best of what was pushed in rank order
// (distance ascending, ID tie-break) while leaving the accumulator reusable.
func TestTopKResultsAppendMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(12)
		n := rng.Intn(60)
		b := NewTopK(k)
		var want []Neighbor
		for i := 0; i < n; i++ {
			// Coarse distances force plenty of ties.
			d := float32(rng.Intn(5))
			want = append(want, Neighbor{ID: i, Dist: d})
			b.Push(i, d)
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].Dist < want[j].Dist })
		want = want[:min(k, n)]
		got := b.ResultsAppend(nil)
		if len(got) != len(want) {
			t.Fatalf("trial %d: ResultsAppend %v, want %v", trial, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: ResultsAppend %v, want %v", trial, got, want)
			}
		}
		// The drained accumulator must be reusable after Reset.
		b.Reset(2)
		b.Push(1, 1)
		b.Push(2, 0.5)
		b.Push(3, 2)
		res := b.ResultsAppend(nil)
		if len(res) != 2 || res[0].ID != 2 || res[1].ID != 1 {
			t.Fatalf("reuse after Reset broken: %v", res)
		}
	}
}
