//go:build !race

package nn

// raceEnabled reports a race-detector build (see race.go).
const raceEnabled = false
