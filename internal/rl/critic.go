package rl

import (
	"fmt"

	"github.com/deeppower/deeppower/internal/nn"
	"github.com/deeppower/deeppower/internal/sim"
)

// Critic is the paper's Q-network (§4.6): the state passes through a first
// hidden layer, its output is concatenated with the action, and two further
// fully-connected layers produce the scalar Q value.
type Critic struct {
	l1  *nn.Dense // stateDim → h1 (ReLU)
	l2  *nn.Dense // h1+actionDim → h2 (ReLU)
	l3  *nn.Dense // h2 → h3 (ReLU)
	out *nn.Dense // h3 → 1 (identity)

	actionDim int
	layers    []*nn.Dense // cached Layers() result

	// Batched-path scratch ([n×dim] row-major), grown on demand and reused
	// so a steady-state batched train step never allocates.
	concatB []float64
	dh1B    []float64
	bn      int
}

// NewCritic builds a critic with hidden sizes (h1, h2, h3).
func NewCritic(stateDim, actionDim int, hidden [3]int, rng *sim.RNG) *Critic {
	c := &Critic{
		l1:        nn.NewDense(stateDim, hidden[0], nn.ReLU, rng),
		l2:        nn.NewDense(hidden[0]+actionDim, hidden[1], nn.ReLU, rng),
		l3:        nn.NewDense(hidden[1], hidden[2], nn.ReLU, rng),
		out:       nn.NewDense(hidden[2], 1, nn.Identity, rng),
		actionDim: actionDim,
	}
	c.layers = []*nn.Dense{c.l1, c.l2, c.l3, c.out}
	return c
}

// ForwardBatch computes Q(s, a) for n row-major [n×stateDim] states and
// [n×actionDim] actions, caching activations for BackwardBatch and
// ActionGradBatch. The
// returned [n] slice aliases an internal buffer. Bit-identical to the
// per-sample forward, one state at a time (see nn.Dense.ForwardBatch).
func (c *Critic) ForwardBatch(states, actions []float64, n int) []float64 {
	h1 := c.l1.ForwardBatch(states, n)
	h1Dim := c.l1.Out
	cw := h1Dim + c.actionDim
	if cap(c.concatB) < n*cw {
		c.concatB = make([]float64, n*cw)
		c.dh1B = make([]float64, n*h1Dim)
	}
	c.concatB = c.concatB[:n*cw]
	c.dh1B = c.dh1B[:n*h1Dim]
	c.bn = n
	for b := 0; b < n; b++ {
		row := c.concatB[b*cw : (b+1)*cw]
		copy(row, h1[b*h1Dim:(b+1)*h1Dim])
		copy(row[h1Dim:], actions[b*c.actionDim:(b+1)*c.actionDim])
	}
	h2 := c.l2.ForwardBatch(c.concatB, n)
	h3 := c.l3.ForwardBatch(h2, n)
	return c.out.ForwardBatch(h3, n)
}

// BackwardBatch propagates dL/dQ for the most recent ForwardBatch (dq is
// [n]), accumulating weight gradients in ascending sample order —
// bit-identical to n per-sample forward/backward pairs. It is the regression
// step's backward: no gradient with respect to the state or the action
// leaves the critic.
func (c *Critic) BackwardBatch(dq []float64, n int) {
	if n != c.bn {
		panic(fmt.Sprintf("rl: Critic.BackwardBatch rows %d, last ForwardBatch had %d", n, c.bn))
	}
	dh3 := c.out.BackwardBatch(dq, n)
	dh2 := c.l3.BackwardBatch(dh3, n)
	dconcat := c.l2.BackwardBatch(dh2, n)
	h1Dim := c.l1.Out
	cw := h1Dim + c.actionDim
	for b := 0; b < n; b++ {
		copy(c.dh1B[b*h1Dim:(b+1)*h1Dim], dconcat[b*cw:])
	}
	c.l1.ParamGradBatch(c.dh1B, n)
}

// ActionGradBatch returns dL/da for the most recent ForwardBatch given dL/dQ
// (dq is [n]) as [n×actionDim] rows aliasing layer scratch — the policy
// step's backward. The action enters at the second layer, so only the input
// gradients of out, l3 and the action columns of l2 are computed; no weight
// gradient is touched. Each row is bit-identical to the action gradient of
// the per-sample backward.
func (c *Critic) ActionGradBatch(dq []float64, n int) []float64 {
	if n != c.bn {
		panic(fmt.Sprintf("rl: Critic.ActionGradBatch rows %d, last ForwardBatch had %d", n, c.bn))
	}
	dh3 := c.out.InputGradBatch(dq, n, 0, c.out.In)
	dh2 := c.l3.InputGradBatch(dh3, n, 0, c.l3.In)
	return c.l2.InputGradBatch(dh2, n, c.l1.Out, c.l2.In)
}

// Layers exposes the trainable layers for optimizers. The slice is cached
// at construction so hot paths (soft updates, finiteness sweeps) don't
// allocate.
func (c *Critic) Layers() []*nn.Dense { return c.layers }

// Clone deep-copies the critic.
func (c *Critic) Clone() *Critic {
	cc := &Critic{
		l1: c.l1.Clone(), l2: c.l2.Clone(), l3: c.l3.Clone(), out: c.out.Clone(),
		actionDim: c.actionDim,
	}
	cc.layers = []*nn.Dense{cc.l1, cc.l2, cc.l3, cc.out}
	return cc
}

// SoftUpdateFrom blends src into this critic: θ ← τ·θ_src + (1-τ)·θ.
func (c *Critic) SoftUpdateFrom(src *Critic, tau float64) {
	mine, theirs := c.Layers(), src.Layers()
	for i := range mine {
		mine[i].SoftUpdateFrom(theirs[i], tau)
	}
}
