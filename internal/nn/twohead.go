package nn

import (
	"fmt"

	"github.com/deeppower/deeppower/internal/sim"
)

// TwoHead is the actor topology the paper describes in §4.6 and Fig. 3:
// "the input state passes the first shared fully-connected layer and then
// gets through two separate fully-connected layers", one head per action
// component (BaseFreq, ScalingCoef), each ending in a sigmoid.
//
// The default geometry — a shared 8→32→24 trunk and two 24→16→1 heads —
// lands at ~1.9k parameters, matching the paper's quoted ~2096 (§5.5).
type TwoHead struct {
	Trunk []*Dense   // shared layers
	Heads [][]*Dense // one stack per output component

	trunkOut []float64
	out      []float64
	params   []*Dense  // cached Params() result (layer set never changes)
	headDy   []float64 // len-1 per-head backprop seed scratch

	// Batched-path scratch ([batch×dim] row-major), grown on demand.
	trunkOutB []float64
	outB      []float64
	headDyB   []float64
	bn        int
}

// NewTwoHead builds a two-headed network: in → trunk sizes → per-head sizes
// → 1 output per head, ReLU throughout and the given activation on each
// head's final layer.
func NewTwoHead(in int, trunk, head []int, heads int, outAct Activation, rng *sim.RNG) *TwoHead {
	if heads < 1 {
		panic("nn: TwoHead needs at least one head")
	}
	t := &TwoHead{out: make([]float64, heads)}
	prev := in
	for _, size := range trunk {
		t.Trunk = append(t.Trunk, NewDense(prev, size, ReLU, rng))
		prev = size
	}
	trunkDim := prev
	for h := 0; h < heads; h++ {
		var stack []*Dense
		prev = trunkDim
		for _, size := range head {
			stack = append(stack, NewDense(prev, size, ReLU, rng))
			prev = size
		}
		stack = append(stack, NewDense(prev, 1, outAct, rng))
		t.Heads = append(t.Heads, stack)
	}
	t.finish()
	return t
}

// finish allocates the fixed-size scratch and the cached parameter list once
// the layer topology is known — so first-call latency matches steady state
// and the hot path never allocates.
func (t *TwoHead) finish() {
	t.trunkOut = make([]float64, t.trunkDim())
	t.headDy = make([]float64, 1)
	t.params = t.params[:0]
	t.params = append(t.params, t.Trunk...)
	for _, stack := range t.Heads {
		t.params = append(t.params, stack...)
	}
}

// trunkDim is the width of the shared representation the heads consume.
func (t *TwoHead) trunkDim() int {
	if len(t.Trunk) > 0 {
		return t.Trunk[len(t.Trunk)-1].Out
	}
	return t.Heads[0][0].In
}

// NewPaperActor returns the actor of §4.6: state dim in, two sigmoid heads,
// shared 32→24 trunk, 16-unit heads.
func NewPaperActor(in int, rng *sim.RNG) *TwoHead {
	return NewTwoHead(in, []int{32, 24}, []int{16}, 2, Sigmoid, rng)
}

// InDim implements Network.
func (t *TwoHead) InDim() int {
	if len(t.Trunk) > 0 {
		return t.Trunk[0].In
	}
	return t.Heads[0][0].In
}

// OutDim implements Network.
func (t *TwoHead) OutDim() int { return len(t.Heads) }

// Forward implements Network.
func (t *TwoHead) Forward(x []float64) []float64 {
	for _, l := range t.Trunk {
		x = l.Forward(x)
	}
	// Each head must cache its own input; the trunk output is shared.
	copy(t.trunkOut, x)
	for h, stack := range t.Heads {
		y := t.trunkOut
		for _, l := range stack {
			y = l.Forward(y)
		}
		t.out[h] = y[0]
	}
	return t.out
}

// Backward implements Network: dy has one gradient per head output.
func (t *TwoHead) Backward(dy []float64) []float64 {
	if len(dy) != len(t.Heads) {
		panic(fmt.Sprintf("nn: TwoHead.Backward gradient %d, want %d", len(dy), len(t.Heads)))
	}
	// Heads must be re-forwarded if another head ran after them; with the
	// shared trunk output cached, replay each head before backprop so its
	// layer caches are fresh.
	var dTrunkOut []float64
	for h, stack := range t.Heads {
		y := t.trunkOut
		for _, l := range stack {
			y = l.Forward(y)
		}
		t.headDy[0] = dy[h]
		g := t.headDy
		for i := len(stack) - 1; i >= 0; i-- {
			g = stack[i].Backward(g)
		}
		if dTrunkOut == nil {
			dTrunkOut = g
		} else {
			for i := range dTrunkOut {
				dTrunkOut[i] += g[i]
			}
		}
	}
	g := dTrunkOut
	for i := len(t.Trunk) - 1; i >= 0; i-- {
		g = t.Trunk[i].Backward(g)
	}
	return g
}

// ForwardBatch implements Network over n row-major [n×InDim] inputs; the
// returned [n×OutDim] slice is an internal buffer reused between calls.
func (t *TwoHead) ForwardBatch(x []float64, n int) []float64 {
	for _, l := range t.Trunk {
		x = l.ForwardBatch(x, n)
	}
	td := t.trunkDim()
	if cap(t.trunkOutB) < n*td {
		t.trunkOutB = make([]float64, n*td)
	}
	t.trunkOutB = t.trunkOutB[:n*td]
	copy(t.trunkOutB, x[:n*td])
	heads := len(t.Heads)
	if cap(t.outB) < n*heads {
		t.outB = make([]float64, n*heads)
		t.headDyB = make([]float64, n)
	}
	t.outB = t.outB[:n*heads]
	t.headDyB = t.headDyB[:n]
	t.bn = n
	for h, stack := range t.Heads {
		y := t.trunkOutB
		for _, l := range stack {
			y = l.ForwardBatch(y, n)
		}
		for b := 0; b < n; b++ {
			t.outB[b*heads+h] = y[b]
		}
	}
	return t.outB
}

// BackwardBatch implements Network: dy is [n×OutDim] for the most recent
// ForwardBatch. Every head kept its own batch caches from that forward (a
// head is its own stack of layers), so nothing is replayed; the trunk
// gradient sums head contributions in head order, so the parameter gradients
// are bit-identical to n per-sample Forward/Backward pairs.
func (t *TwoHead) BackwardBatch(dy []float64, n int) {
	if n != t.bn {
		panic(fmt.Sprintf("nn: TwoHead.BackwardBatch rows %d, last ForwardBatch had %d", n, t.bn))
	}
	heads := len(t.Heads)
	if len(dy) != n*heads {
		panic(fmt.Sprintf("nn: TwoHead.BackwardBatch gradient %d, want %d rows × %d", len(dy), n, heads))
	}
	var dTrunk []float64
	for h, stack := range t.Heads {
		for b := 0; b < n; b++ {
			t.headDyB[b] = dy[b*heads+h]
		}
		if len(t.Trunk) == 0 { // the heads read the data themselves
			backwardStack(stack, t.headDyB, n)
			continue
		}
		g := t.headDyB
		for i := len(stack) - 1; i >= 0; i-- {
			g = stack[i].BackwardBatch(g, n)
		}
		if dTrunk == nil {
			dTrunk = g
		} else {
			for i := range dTrunk {
				dTrunk[i] += g[i]
			}
		}
	}
	if len(t.Trunk) > 0 {
		backwardStack(t.Trunk, dTrunk, n)
	}
}

// ZeroGrad implements Network.
func (t *TwoHead) ZeroGrad() {
	for _, l := range t.Params() {
		l.ZeroGrad()
	}
}

// Params implements Network. The returned slice is cached (the layer set
// is fixed at construction) so hot paths can call it allocation-free.
func (t *TwoHead) Params() []*Dense { return t.params }

// NumParams implements Network.
func (t *TwoHead) NumParams() int {
	n := 0
	for _, l := range t.Params() {
		n += l.NumParams()
	}
	return n
}

// CloneNet implements Network.
func (t *TwoHead) CloneNet() Network {
	c := &TwoHead{out: make([]float64, len(t.out))}
	for _, l := range t.Trunk {
		c.Trunk = append(c.Trunk, l.Clone())
	}
	for _, stack := range t.Heads {
		var cs []*Dense
		for _, l := range stack {
			cs = append(cs, l.Clone())
		}
		c.Heads = append(c.Heads, cs)
	}
	c.finish()
	return c
}

// SoftUpdateNet implements Network. src must be a *TwoHead of equal shape.
func (t *TwoHead) SoftUpdateNet(src Network, tau float64) {
	s := src.(*TwoHead)
	mine, theirs := t.Params(), s.Params()
	if len(mine) != len(theirs) {
		panic("nn: TwoHead soft update shape mismatch")
	}
	for i := range mine {
		mine[i].SoftUpdateFrom(theirs[i], tau)
	}
}

var _ Network = (*TwoHead)(nil)
