package nn

// Network abstracts a trainable feed-forward network so agents can swap
// topologies (the sequential MLP, or the paper's two-headed actor).
type Network interface {
	// Forward evaluates the network; the result aliases internal buffers.
	Forward(x []float64) []float64
	// Backward propagates dL/dy of the latest Forward and accumulates
	// parameter gradients, returning dL/dinput.
	Backward(dy []float64) []float64
	// ForwardBatch evaluates n row-major [n×InDim] inputs at once; the
	// [n×OutDim] result aliases internal buffers. Bit-identical to n
	// Forward calls, but allocation-free, with each layer's output units
	// computed several at a time — four accumulator chains in Go, or 16-,
	// 8- and 4-unit AVX2 blocks on amd64 (Dense.ForwardBatch).
	ForwardBatch(x []float64, n int) []float64
	// BackwardBatch propagates [n×OutDim] output gradients of the latest
	// ForwardBatch, accumulating parameter gradients in ascending sample
	// order (bit-identical to n Forward/Backward pairs). It computes no
	// dL/dinput: a network's input is data.
	BackwardBatch(dy []float64, n int)
	// ZeroGrad clears accumulated gradients.
	ZeroGrad()
	// NumParams counts trainable parameters.
	NumParams() int
	// Params exposes the trainable layers for optimizers.
	Params() []*Dense
	// CloneNet deep-copies the network.
	CloneNet() Network
	// SoftUpdateNet blends src (of the same concrete type) into this
	// network: θ ← τ·θ_src + (1−τ)·θ.
	SoftUpdateNet(src Network, tau float64)
	// InDim and OutDim report input/output widths.
	InDim() int
	OutDim() int
}

// Params implements Network.
func (m *MLP) Params() []*Dense { return m.Layers }

// CloneNet implements Network.
func (m *MLP) CloneNet() Network { return m.Clone() }

// SoftUpdateNet implements Network. src must be an *MLP of the same shape.
func (m *MLP) SoftUpdateNet(src Network, tau float64) {
	m.SoftUpdateFrom(src.(*MLP), tau)
}

var _ Network = (*MLP)(nil)
