//go:build !race

package socialnet

const raceEnabled = false
