package multiem

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/table"
)

// The merge-path confidence extension (§VI future work): every predicted
// tuple carries 1 - worstJoinDist/2.

func TestConfidencesAlignedAndBounded(t *testing.T) {
	d, err := datagen.GenerateByName("Geo", 0.2, 11)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.M = 0.5
	res, err := Run(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Confidences) != len(res.Tuples) {
		t.Fatalf("confidences %d != tuples %d", len(res.Confidences), len(res.Tuples))
	}
	for i, c := range res.Confidences {
		if c < 0 || c > 1 {
			t.Fatalf("confidence %d = %v out of [0,1]", i, c)
		}
		// Every tuple was produced by at least one accepted join under
		// threshold M, so confidence is at least 1 - M/2.
		if c < 1-float64(opt.M)/2-1e-6 {
			t.Fatalf("confidence %v below join-threshold floor %v", c, 1-float64(opt.M)/2)
		}
	}
}

func TestHighConfidenceTuplesMorePrecise(t *testing.T) {
	d, err := datagen.GenerateByName("Music-20", 0.05, 13)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.M = 0.5
	res, err := Run(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	truth := map[string]bool{}
	for _, tp := range d.Truth {
		truth[keyOf(tp)] = true
	}
	correct := func(lo, hi float64) (right, total int) {
		for i, tp := range res.Tuples {
			c := res.Confidences[i]
			if c < lo || c >= hi {
				continue
			}
			total++
			if truth[keyOf(tp)] {
				right++
			}
		}
		return
	}
	hiRight, hiTotal := correct(0.9, 1.01)
	loRight, loTotal := correct(0, 0.9)
	if hiTotal == 0 || loTotal == 0 {
		t.Skipf("degenerate confidence split: hi=%d lo=%d", hiTotal, loTotal)
	}
	hiPrec := float64(hiRight) / float64(hiTotal)
	loPrec := float64(loRight) / float64(loTotal)
	if hiPrec <= loPrec {
		t.Fatalf("high-confidence precision %.3f must exceed low-confidence %.3f", hiPrec, loPrec)
	}
}

func keyOf(tuple []int) string { return table.TupleKey(tuple) }
