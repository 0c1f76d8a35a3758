//go:build !race

package slate

const raceEnabled = false
