package nn

import "github.com/deeppower/deeppower/internal/sim"

// MLP is a stack of Dense layers.
type MLP struct {
	Layers []*Dense
}

// NewMLP builds a network with the given layer sizes, hidden activation for
// every layer but the last, and out activation on the final layer.
// sizes must contain at least [in, out].
func NewMLP(sizes []int, hidden, out Activation, rng *sim.RNG) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		act := hidden
		if i+2 == len(sizes) {
			act = out
		}
		m.Layers = append(m.Layers, NewDense(sizes[i], sizes[i+1], act, rng))
	}
	return m
}

// Forward evaluates the network. The returned slice aliases the last
// layer's buffer; copy it to retain across calls.
func (m *MLP) Forward(x []float64) []float64 {
	for _, l := range m.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward propagates dL/dy of the most recent Forward through the network,
// accumulating parameter gradients, and returns dL/dinput.
func (m *MLP) Backward(dy []float64) []float64 {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		dy = m.Layers[i].Backward(dy)
	}
	return dy
}

// ForwardBatch evaluates the network on n row-major [n×InDim] inputs. The
// returned [n×OutDim] slice aliases the last layer's batch buffer.
func (m *MLP) ForwardBatch(x []float64, n int) []float64 {
	for _, l := range m.Layers {
		x = l.ForwardBatch(x, n)
	}
	return x
}

// BackwardBatch propagates dL/dy of the most recent ForwardBatch ([n×OutDim],
// row-major) through the network, accumulating parameter gradients.
// Bit-identical to n sequential Forward/Backward pairs (see
// Dense.BackwardBatch). The network's input is data, so the first layer
// computes no input gradient and nothing is returned.
func (m *MLP) BackwardBatch(dy []float64, n int) {
	backwardStack(m.Layers, dy, n)
}

// backwardStack backpropagates dy through a stack whose first layer reads
// data: every layer accumulates its parameter gradients, every layer but the
// first hands its input gradient down.
func backwardStack(layers []*Dense, dy []float64, n int) {
	for i := len(layers) - 1; i > 0; i-- {
		dy = layers[i].BackwardBatch(dy, n)
	}
	layers[0].ParamGradBatch(dy, n)
}

// ZeroGrad clears gradients on every layer.
func (m *MLP) ZeroGrad() {
	for _, l := range m.Layers {
		l.ZeroGrad()
	}
}

// NumParams returns the total number of trainable parameters.
func (m *MLP) NumParams() int {
	n := 0
	for _, l := range m.Layers {
		n += l.NumParams()
	}
	return n
}

// InDim and OutDim report the network's input and output widths.
func (m *MLP) InDim() int { return m.Layers[0].In }

// OutDim reports the network's output width.
func (m *MLP) OutDim() int { return m.Layers[len(m.Layers)-1].Out }

// Clone deep-copies the network.
func (m *MLP) Clone() *MLP {
	c := &MLP{}
	for _, l := range m.Layers {
		c.Layers = append(c.Layers, l.Clone())
	}
	return c
}

// SoftUpdateFrom blends src into the network: θ ← τ·θ_src + (1-τ)·θ.
func (m *MLP) SoftUpdateFrom(src *MLP, tau float64) {
	if len(m.Layers) != len(src.Layers) {
		panic("nn: SoftUpdateFrom layer count mismatch")
	}
	for i, l := range m.Layers {
		l.SoftUpdateFrom(src.Layers[i], tau)
	}
}

// MSE returns the mean squared error between pred and target and writes
// dL/dpred into grad (all three must share a length).
func MSE(pred, target, grad []float64) float64 {
	if len(pred) != len(target) || len(grad) != len(pred) {
		panic("nn: MSE length mismatch")
	}
	loss := 0.0
	n := float64(len(pred))
	for i := range pred {
		d := pred[i] - target[i]
		loss += d * d / n
		grad[i] = 2 * d / n
	}
	return loss
}
