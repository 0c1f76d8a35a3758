//go:build !race

package engine2

const raceEnabled = false
