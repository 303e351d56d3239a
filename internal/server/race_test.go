//go:build race

package server

// raceEnabled reports a race-detector build, under which sync.Pool drops
// items at random: a warm run is then not guaranteed to find a store.
const raceEnabled = true
