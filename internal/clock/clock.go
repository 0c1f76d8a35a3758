// Package clock abstracts time so that engines and caches can run
// against a deterministic fake clock in tests and the experiment
// harness, and against the wall clock in production use.
package clock

import (
	"sync"
	"time"
)

// Clock supplies the current time and timers.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks for at least d.
	Sleep(d time.Duration)
	// After returns a channel that delivers the time after d elapses.
	After(d time.Duration) <-chan time.Time
}

// Real is the wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Fake is a manually advanced clock. It is safe for concurrent use.
// Sleepers and After-waiters are released when Advance moves the clock
// past their deadline.
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*waiter
}

type waiter struct {
	at time.Time
	ch chan time.Time
}

// NewFake returns a fake clock starting at the given time.
func NewFake(start time.Time) *Fake {
	return &Fake{now: start}
}

// Now implements Clock.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Sleep implements Clock; it blocks until Advance moves the clock past
// the deadline.
func (f *Fake) Sleep(d time.Duration) {
	<-f.After(d)
}

// After implements Clock.
func (f *Fake) After(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := &waiter{at: f.now.Add(d), ch: make(chan time.Time, 1)}
	if d <= 0 {
		w.ch <- f.now
		return w.ch
	}
	f.waiters = append(f.waiters, w)
	return w.ch
}

// Advance moves the clock forward by d, releasing every waiter whose
// deadline has been reached.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	now := f.now
	var keep []*waiter
	var fire []*waiter
	for _, w := range f.waiters {
		if !w.at.After(now) {
			fire = append(fire, w)
		} else {
			keep = append(keep, w)
		}
	}
	f.waiters = keep
	f.mu.Unlock()
	for _, w := range fire {
		w.ch <- now
	}
}
