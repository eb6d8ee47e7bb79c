//go:build !race

package cme

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
