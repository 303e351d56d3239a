//go:build race

package nn

// raceEnabled reports a race-detector build. The detector cannot see memory
// that assembly touches, so such a build takes the portable kernels.
const raceEnabled = true
