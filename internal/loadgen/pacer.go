package loadgen

import (
	"fmt"
	"time"
)

// Pacer produces the open-loop arrival schedule: tick i is fixed at
// start + i/rate the moment the pacer is created. Next sleeps until the next
// scheduled instant and returns it; it never re-plans around slow sends,
// which is what keeps the generated load open-loop. A Pacer is used by a
// single dispatch goroutine.
type Pacer struct {
	start time.Time
	rate  float64
	clock Clock
	i     int64
}

// NewPacer schedules arrivals at rate per second, starting now. rate must be
// positive.
func NewPacer(rate float64, clock Clock) (*Pacer, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("loadgen: rate must be positive, got %v", rate)
	}
	if clock == nil {
		clock = RealClock
	}
	return &Pacer{start: clock.Now(), rate: rate, clock: clock}, nil
}

// Start returns the schedule origin (tick 0's instant).
func (p *Pacer) Start() time.Time { return p.start }

// Next blocks until the next scheduled arrival and returns its instant. It
// returns ok=false — without consuming the tick — once the next arrival
// would land at or past deadline, so the number of ticks issued before a
// deadline depends only on rate and elapsed schedule time, never on how
// slow the callers were: exactly ceil(rate · window) arrivals fit in
// [start, deadline).
func (p *Pacer) Next(deadline time.Time) (time.Time, bool) {
	t := p.tick(p.i)
	if !t.Before(deadline) {
		return time.Time{}, false
	}
	p.i++
	p.clock.SleepUntil(t)
	return t, true
}

// tick returns the scheduled instant of arrival i, computed from the origin
// (not accumulated), so rounding error never drifts the schedule.
func (p *Pacer) tick(i int64) time.Time {
	return p.start.Add(time.Duration(float64(i) * float64(time.Second) / p.rate))
}
