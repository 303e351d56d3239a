//go:build !amd64

package nn

// useAVX2 is always false here: only amd64 has a vector kernel.
var useAVX2 = false

// forwardVector computes nothing: ForwardBatch's Go loop does every unit.
func (d *Dense) forwardVector(int) (done, rows int) { return 0, 0 }

// backwardVector declines: backwardBatch's Go walk runs.
func (d *Dense) backwardVector([]float64, []float64, int, bool, int, int) bool { return false }

// adamVector and blendVector decline: the Go loops run.
func adamVector(_, _, _, _ []float64, _ *[8]float64) bool { return false }

func blendVector(_, _ []float64, _ float64) bool { return false }
