package clock

// Test-only views of a Fake.

// PendingWaiters reports how many sleepers are blocked; tests use it to
// synchronize with goroutines that are about to sleep.
func (f *Fake) PendingWaiters() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.waiters)
}
