package recovery

// Test-only views of a Detector.

// SuspicionLevel reports the machine's current run of consecutive
// transient failures (0 when unsuspected).
func (d *Detector) SuspicionLevel(machine string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s := d.suspects[machine]; s != nil {
		return s.count
	}
	return 0
}
