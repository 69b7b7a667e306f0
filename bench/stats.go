package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles are the percentiles a latency tail may be reported at,
// ascending.
var tailPercentiles = []float64{50, 75, 90, 95, 99}

// tailPercentile returns the highest of tailPercentiles that still has at
// least ten of n samples beyond it (choosing-metrics guide §1), or 50 when
// none has. Latency tails are taken at this percentile of the samples at
// hand — 99 from 1000 samples up — and the result document records it, so a
// shrunk run cannot pass a p90 off as a p99.
func tailPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// rank is the 1-based nearest-rank position of percentile p among n sorted
// samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile is the nearest-rank percentile of sorted (ascending); 0 for an
// empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// median sorts a copy of xs and returns its nearest-rank median.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// sortedMS converts latencies to ascending milliseconds.
func sortedMS(lat []time.Duration) []float64 {
	out := make([]float64, len(lat))
	for i, d := range lat {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
