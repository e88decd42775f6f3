//go:build race

package socialnet

// raceEnabled shortens single-goroutine differential tests under the race
// detector, which has nothing to find in them and slows them tenfold.
const raceEnabled = true
