//go:build !amd64

package nn

// useAVX2 is always false here: only amd64 has a vector kernel.
var useAVX2 = false

// forwardVector computes nothing: ForwardBatch's Go loop does every unit.
func (d *Dense) forwardVector(int) int { return 0 }

// backwardVector declines: backwardBatch's Go walk runs.
func (d *Dense) backwardVector([]float64, []float64, int, bool, int, int) bool { return false }
