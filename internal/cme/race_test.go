//go:build race

package cme

// raceEnabled reports a -race build.
const raceEnabled = true
