package netsim

import (
	"errors"
	"sync/atomic"
	"time"
)

// SimClock is the time source for the simulation. Experiments replay a full
// month of attack traffic in seconds, so simulated components must never read
// the wall clock directly; they take a SimClock and the driver advances it.
// It is safe for concurrent use.
//
// Every probe reads it and only the experiment driver moves it, so the
// current instant sits behind an atomic pointer to an immutable time.Time:
// Now is one atomic load and readers on different cores never write a
// shared cache line; Set publishes a fresh value by compare-and-swap.
type SimClock struct {
	now atomic.Pointer[time.Time]
}

// NewSimClock returns a clock starting at the given instant.
func NewSimClock(start time.Time) *SimClock {
	c := &SimClock{}
	c.now.Store(&start)
	return c
}

// Now returns the current simulated time.
func (c *SimClock) Now() time.Time {
	return *c.now.Load()
}

// ErrClockBackwards is returned by Set when the requested instant is before
// the current simulated time. The clock is left unchanged: simulated time is
// monotonic, and a driver that schedules against an already-passed instant
// has a bug it needs to hear about rather than a silently skewed timeline.
var ErrClockBackwards = errors.New("netsim: SimClock.Set would move time backwards")

// Set jumps the clock to t. Setting the current time again is a no-op;
// setting an earlier time fails with ErrClockBackwards and does not move
// the clock.
func (c *SimClock) Set(t time.Time) error {
	for {
		cur := c.now.Load()
		if t.Before(*cur) {
			return ErrClockBackwards
		}
		if c.now.CompareAndSwap(cur, &t) {
			return nil
		}
	}
}

// ExperimentStart is the canonical start of the simulated measurement month.
// The paper recorded attacks during April 2021 (Section 3.3.2); all simulated
// timestamps are anchored here so daily series line up with Figure 8.
var ExperimentStart = time.Date(2021, time.April, 1, 0, 0, 0, 0, time.UTC)
