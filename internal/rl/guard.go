package rl

import (
	"math"

	"github.com/deeppower/deeppower/internal/nn"
)

// The paper's learner hyper-parameters (§4.6), shared by every learner in
// this package.
const (
	// learningRate is every network's Adam step size.
	learningRate = 1e-3
	// gamma is the discount factor.
	gamma = 0.95
	// tau is the soft target-update coefficient.
	tau = 0.01
	// maxGradNorm is the global gradient-norm clip every optimizer trains
	// under; it stabilizes early critic training.
	maxGradNorm = 5
)

// newAdam is the one place a trainer's optimizer is built — construction,
// divergence rollback and LoadPolicy all come through here, so none of them
// can resume with an unclipped optimizer.
func newAdam(layers []*nn.Dense) *nn.Adam {
	opt := nn.NewAdam(layers, learningRate)
	opt.MaxGradNorm = maxGradNorm
	return opt
}

// guard is the divergence guard every trainer's Update runs under. A
// pathological transition (possible when faulted telemetry slips one into
// replay) can turn a gradient step into NaN weights that no later step
// repairs; the guard snapshots every live and target weight before the step
// and, if the step produced a non-finite loss or weight, restores them, has
// the trainer rebuild its optimizers (their moments may carry the NaN) and
// counts the skipped batch.
//
// The snapshot arena is preallocated by watch, so a guarded steady-state
// train step stays allocation-free.
type guard struct {
	layers      []*nn.Dense // live layers first, then targets
	live        int         // layers[:live] are trained directly
	w, b        [][]float64 // flat copies of every layer's (W, B)
	rebuild     func()      // rebuilds the trainer's optimizers
	divergences uint64
}

// watch (re)points the guard at a trainer's networks — at construction and
// whenever a load replaces the network objects.
func (g *guard) watch(live, targets []*nn.Dense) {
	g.layers = append(append(g.layers[:0], live...), targets...)
	g.live = len(live)
	g.w, g.b = g.w[:0], g.b[:0]
	for _, l := range g.layers {
		g.w = append(g.w, make([]float64, len(l.W)))
		g.b = append(g.b, make([]float64, len(l.B)))
	}
}

// snapshot records the pre-update weights.
func (g *guard) snapshot() {
	for i, l := range g.layers {
		copy(g.w[i], l.W)
		copy(g.b[i], l.B)
	}
}

// diverged reports whether the step just taken must be undone — a loss or a
// live weight is non-finite — and if so undoes it. Targets only ever blend
// live weights in, so they are finite whenever the live weights are.
func (g *guard) diverged(lossesFinite bool) bool {
	if lossesFinite && g.weightsFinite() {
		return false
	}
	for i, l := range g.layers {
		copy(l.W, g.w[i])
		copy(l.B, g.b[i])
	}
	g.rebuild()
	g.divergences++
	return true
}

// weightsFinite reports whether every live weight is finite, without a
// branch per weight (see nonFinite).
func (g *guard) weightsFinite() bool {
	var acc uint64
	for _, l := range g.layers[:g.live] {
		acc |= nonFinite(l.W) | nonFinite(l.B)
	}
	return acc>>63 == 0
}

// nonFinite returns a word whose top bit is set exactly when some value in
// xs is NaN or ±Inf, i.e. has an all-ones exponent. Adding 1<<52 to the
// exponent bits carries into bit 63 only from an all-ones exponent, and
// four independent OR chains keep the loop from waiting on one another.
func nonFinite(xs []float64) uint64 {
	const exp, one = 0x7ff << 52, 1 << 52
	var a0, a1, a2, a3 uint64
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		a0 |= math.Float64bits(xs[i])&exp + one
		a1 |= math.Float64bits(xs[i+1])&exp + one
		a2 |= math.Float64bits(xs[i+2])&exp + one
		a3 |= math.Float64bits(xs[i+3])&exp + one
	}
	for ; i < len(xs); i++ {
		a0 |= math.Float64bits(xs[i])&exp + one
	}
	return a0 | a1 | a2 | a3
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
