package main

import (
	"math/rand"
	"time"
)

// reference is the harness's yardstick for the speed of the box. The sandbox
// this benchmark runs in shares its cores, last-level cache and memory with
// other tenants, and its speed shifts by 10-30% for seconds to minutes at a
// time — longer than a run, so no estimator inside a run can average it out.
// A fixed task owned by the harness is therefore timed all through the run,
// and each gated timing is divided by what the task's slowdown predicts for
// the program (scale): a timing at reference speed. A change to the program
// cannot move the task; a slow minute of the box moves both alike.
//
// The task is what the program's hot loops do to the machine: dot products
// of one query with rows gathered at random from an arena several times the
// L2 cache (HNSW search and insert, under both /match and /add, and the
// pipeline's merge phase). Measured over the same runs, it tracked the
// client's medians at r = 0.90-0.96, where a cache-resident dot-product loop
// (r = 0.55-0.95) and a loopback HTTP echo (own spread 25-33%) did not.
type reference struct {
	arena   []float32
	idx     []int32
	sink    float32
	samples []float64 // piece times, ms
}

const (
	refRows    = 16384 // x refDim float32 = 16 MiB
	refDim     = 256   // the encoder's dimension
	refGathers = 8192  // rows per piece
	// refNominalMS is what one piece takes on the box the benchmark was
	// written on in its quiet minutes. It only fixes the scale: speed 1.0
	// is that box at its best.
	refNominalMS = 2.0
	// refShare is the share of the program's time that follows the task.
	// The task is all memory traffic; the program also parses, encodes and
	// waits on system calls, which the neighbours slow less. Across 160
	// runs of the four workloads, in quiet hours and noisy ones, the log of
	// a client median rose by 0.6-1.1 (mean 0.8) per unit of the log of the
	// task's time, and scaling by 0.75 of the slowdown left the least
	// spread in each of the four sets of runs (README, Load model).
	refShare = 0.75
)

func newReference() *reference {
	rng := rand.New(rand.NewSource(1))
	f := &reference{
		arena: make([]float32, refRows*refDim),
		idx:   make([]int32, refGathers),
	}
	for i := range f.arena {
		f.arena[i] = rng.Float32()
	}
	for i := range f.idx {
		f.idx[i] = int32(rng.Intn(refRows))
	}
	return f
}

// sample times pieces of the task. Callers do so while the server is idle,
// so the task competes with nothing of the program's.
func (f *reference) sample(pieces int) {
	q := f.arena[:refDim]
	for p := 0; p < pieces; p++ {
		t0 := time.Now()
		var s float32
		for _, ix := range f.idx {
			row := f.arena[int(ix)*refDim : int(ix)*refDim+refDim]
			var s0, s1, s2, s3 float32
			for i := 0; i < refDim; i += 4 {
				s0 += q[i] * row[i]
				s1 += q[i+1] * row[i+1]
				s2 += q[i+2] * row[i+2]
				s3 += q[i+3] * row[i+3]
			}
			s += s0 + s1 + s2 + s3
		}
		f.samples = append(f.samples, float64(time.Since(t0))/float64(time.Millisecond))
		f.sink += s
	}
}

// slowdown is how many times slower than nominal the task ran: the median
// piece over the nominal piece.
func (f *reference) slowdown() float64 {
	return median(f.samples) / refNominalMS
}

// scale is how many times slower than at reference speed the program is
// taken to have run: refShare of its time slowed down with the task, the
// rest not at all. A timing divided by it is the timing at reference speed.
func (f *reference) scale() float64 {
	return 1 + refShare*(f.slowdown()-1)
}
