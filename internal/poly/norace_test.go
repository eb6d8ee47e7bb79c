//go:build !race

package poly

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
