//go:build !race

package muppet_test

const raceEnabled = false
