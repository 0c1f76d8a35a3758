//go:build race

package muppet_test

// raceEnabled reports that this binary was built with the race
// detector, whose instrumentation allocates on its own account.
const raceEnabled = true
