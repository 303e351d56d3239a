package rl

import (
	"fmt"
	"math"

	"github.com/deeppower/deeppower/internal/nn"
	"github.com/deeppower/deeppower/internal/sim"
)

const (
	logStdMin = -5
	logStdMax = 2
	sacEps    = 1e-6
)

// gaussHead is SAC's policy: the actor outputs 2·ActionDim values per state —
// means, then raw log-stds — and an action is a tanh-squashed Gaussian draw
// mapped affinely onto [0,1]. There is no target copy: the bootstrap samples
// the live policy.
//
// The [n×ActionDim] and [n] rows below are the reparameterized draws of the
// latest drawBatch and everything improve's chain rule needs from them,
// grown on demand so a steady-state Update never allocates.
type gaussHead struct {
	a01, aTanh, eps, std, dRaw []float64 // [n×ActionDim]
	logPi                      []float64 // [n]
	dq1, dq2                   []float64 // [n] min-critic masks
}

func (h *gaussHead) build(l *ActorCritic, rng *sim.RNG) (actor, target nn.Network, err error) {
	cfg := l.cfg
	if cfg.TwoHeadActor {
		return nil, nil, fmt.Errorf("rl: the two-head actor is a deterministic topology; sac needs a sequential (µ, logσ) network")
	}
	sizes := append([]int{cfg.StateDim}, cfg.actorHidden...)
	return nn.NewMLP(append(sizes, 2*cfg.ActionDim), nn.ReLU, nn.Identity, rng), nil, nil
}

// ensure grows the sampling scratch to n rows of d actions.
func (h *gaussHead) ensure(n, d int) {
	if cap(h.a01) < n*d {
		h.a01 = make([]float64, n*d)
		h.aTanh = make([]float64, n*d)
		h.eps = make([]float64, n*d)
		h.std = make([]float64, n*d)
		h.dRaw = make([]float64, n*d)
	}
	if cap(h.logPi) < n {
		h.logPi = make([]float64, n)
		h.dq1 = make([]float64, n)
		h.dq2 = make([]float64, n)
	}
	h.a01, h.aTanh, h.eps = h.a01[:n*d], h.aTanh[:n*d], h.eps[:n*d]
	h.std, h.dRaw = h.std[:n*d], h.dRaw[:n*d]
	h.logPi, h.dq1, h.dq2 = h.logPi[:n], h.dq1[:n], h.dq2[:n]
}

// act is the mean action: tanh(µ) mapped into [0,1].
func (h *gaussHead) act(l *ActorCritic, raw []float64, n int) []float64 {
	d := l.cfg.ActionDim
	h.ensure(n, d)
	for b := 0; b < n; b++ {
		for i := 0; i < d; i++ {
			h.a01[b*d+i] = (math.Tanh(raw[b*2*d+i]) + 1) / 2
		}
	}
	return h.a01
}

func (h *gaussHead) sample(l *ActorCritic, raw []float64) []float64 {
	h.ensure(1, l.cfg.ActionDim)
	h.drawBatch(l, raw, 1, nil)
	return append([]float64(nil), h.a01...)
}

// drawBatch fills the scratch rows with one reparameterized draw per row of a
// batched actor output. The log-std is smoothly bounded via tanh
// (logStdMin..logStdMax) so gradients never hit a hard clamp; dRaw is
// d(logStd)/d(raw output) for the chain rule. Rows where skip is true are
// left untouched and consume no RNG draws, so the draw sequence matches the
// per-sample reference exactly (which samples non-terminal rows only in the
// critic pass).
func (h *gaussHead) drawBatch(l *ActorCritic, out []float64, n int, skip []bool) {
	d := l.cfg.ActionDim
	half := 0.5 * (logStdMax - logStdMin)
	for b := 0; b < n; b++ {
		if skip != nil && skip[b] {
			continue
		}
		row := out[b*2*d : (b+1)*2*d]
		logPi := 0.0
		for i := 0; i < d; i++ {
			mu := row[i]
			t := math.Tanh(row[d+i])
			logStd := logStdMin + half*(t+1)
			h.dRaw[b*d+i] = half * (1 - t*t)
			std := math.Exp(logStd)
			eps := l.rng.NormFloat64()
			u := mu + std*eps
			aTanh := math.Tanh(u)
			h.std[b*d+i] = std
			h.eps[b*d+i] = eps
			h.aTanh[b*d+i] = aTanh
			h.a01[b*d+i] = (aTanh + 1) / 2
			logPi += -0.5*eps*eps - logStd - 0.5*math.Log(2*math.Pi) -
				math.Log(1-aTanh*aTanh+sacEps)
		}
		h.logPi[b] = logPi
	}
}

// target samples ã' ~ π(·|s') for non-terminal rows. Terminal rows carry
// stale actions through the target critics and are masked out of y.
func (h *gaussHead) target(l *ActorCritic, n int) (actions, logPi []float64) {
	h.ensure(n, l.cfg.ActionDim)
	h.drawBatch(l, l.Actor.ForwardBatch(l.arena.next, n), n, l.arena.done)
	return h.a01, h.logPi
}

// improve minimizes E[α·logπ(ã|s) − min_k Q_k(s, ã)] with the
// reparameterization trick through the tanh squash. Per sample, only the
// smaller critic backpropagates: both critics run ActionGradBatch with
// complementary 1/0 masks (a masked row's δ is zero in every layer, so the
// kernel skips it), and each sample reads dQ/da from its min critic's row —
// bit-identical to backpropagating 1 through the min critic alone.
func (h *gaussHead) improve(l *ActorCritic, n int) (loss float64) {
	ar, d, alpha := &l.arena, l.cfg.ActionDim, l.v.alpha
	c1, c2 := l.Critics[0], l.Critics[1]
	inv := 1 / float64(n)
	h.drawBatch(l, l.Actor.ForwardBatch(ar.states, n), n, nil)
	q1 := c1.ForwardBatch(ar.states, h.a01, n)
	q2 := c2.ForwardBatch(ar.states, h.a01, n)
	for i := 0; i < n; i++ {
		if q2[i] < q1[i] {
			h.dq1[i], h.dq2[i] = 0, 1
			loss += (alpha*h.logPi[i] - q2[i]) * inv
		} else {
			h.dq1[i], h.dq2[i] = 1, 0
			loss += (alpha*h.logPi[i] - q1[i]) * inv
		}
	}
	da1 := c1.ActionGradBatch(h.dq1, n)
	da2 := c2.ActionGradBatch(h.dq2, n)
	for b := 0; b < n; b++ {
		dqda := da1[b*d : (b+1)*d]
		if h.dq2[b] == 1 {
			dqda = da2[b*d : (b+1)*d]
		}
		grad := ar.grad[b*2*d : (b+1)*2*d]
		for i := 0; i < d; i++ {
			aTanh := h.aTanh[b*d+i]
			sech2 := 1 - aTanh*aTanh // da_tanh/du
			da01du := 0.5 * sech2
			dLogPiDu := 2 * aTanh * sech2 / (sech2 + sacEps)
			// dL/dµ_i.
			grad[i] = inv * (alpha*dLogPiDu - dqda[i]*da01du)
			// dL/dlogσ_i: u depends on logσ via σ·ε; logπ also carries the
			// explicit -logσ term. Chain through the tanh bounding of logσ
			// to reach the raw network output.
			duDLogStd := h.std[b*d+i] * h.eps[b*d+i]
			dLdLogStd := alpha*(dLogPiDu*duDLogStd-1) - dqda[i]*da01du*duDLogStd
			grad[d+i] = inv * dLdLogStd * h.dRaw[b*d+i]
		}
	}
	l.Actor.BackwardBatch(ar.grad, n)
	l.actorOpt.Step()
	return loss
}
