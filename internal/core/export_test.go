package core

// Test-only views of a Reference, and of the build.

// Steps returns the total function invocations so far.
func (r *Reference) Steps() uint64 { return r.steps }

// RaceEnabled reports that the test binary was built with the race
// detector.
const RaceEnabled = raceEnabled
