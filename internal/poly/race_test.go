//go:build race

package poly

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random: allocation-count assertions do not hold there.
const raceEnabled = true
