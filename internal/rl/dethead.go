package rl

import (
	"fmt"
	"math"

	"github.com/deeppower/deeppower/internal/nn"
	"github.com/deeppower/deeppower/internal/sim"
)

// detHead is DDPG's policy: a deterministic actor with a sigmoid output
// (either topology) and a target copy the bootstrap acts from.
type detHead struct {
	zeros []float64 // log π of a deterministic action, for any batch size
}

func (h *detHead) build(l *ActorCritic, rng *sim.RNG) (actor, target nn.Network, err error) {
	cfg := l.cfg
	if cfg.TwoHeadActor {
		if cfg.ActionDim != 2 {
			return nil, nil, fmt.Errorf("rl: two-head actor requires ActionDim 2, got %d", cfg.ActionDim)
		}
		actor = nn.NewPaperActor(cfg.StateDim, rng)
	} else {
		sizes := append([]int{cfg.StateDim}, cfg.actorHidden...)
		actor = nn.NewMLP(append(sizes, cfg.ActionDim), nn.ReLU, nn.Sigmoid, rng)
	}
	for _, layer := range actor.Params() {
		if layer.Act == nn.Sigmoid {
			shrinkFinalLayer(layer, l.v.finalInit)
		}
	}
	return actor, actor.CloneNet(), nil
}

func (h *detHead) act(_ *ActorCritic, raw []float64, _ int) []float64 { return raw }

func (h *detHead) sample(_ *ActorCritic, raw []float64) []float64 {
	return append([]float64(nil), raw...)
}

func (h *detHead) target(l *ActorCritic, n int) (actions, logPi []float64) {
	if cap(h.zeros) < n {
		h.zeros = make([]float64, n)
	}
	return l.ActorTarget.ForwardBatch(l.arena.next, n), h.zeros[:n]
}

// improve maximizes Σ Q_w(s_i, π_θ(s_i)) — descends on L_a = −Q — through
// the first critic only, as in the TD3 paper.
func (h *detHead) improve(l *ActorCritic, n int) (loss float64) {
	ar, critic := &l.arena, l.Critics[0]
	inv := 1 / float64(n)
	a := l.Actor.ForwardBatch(ar.states, n)
	q := critic.ForwardBatch(ar.states, a, n)
	for i := 0; i < n; i++ {
		loss += -q[i] * inv
		ar.dq[i] = -inv // dL_a/dQ per sample
	}
	l.Actor.BackwardBatch(critic.ActionGradBatch(ar.dq, n), n)
	l.actorOpt.Step()
	l.ActorTarget.SoftUpdateNet(l.Actor, tau)
	return loss
}

// smoothedHead is TD3's policy: detHead with target-policy smoothing —
// clipped Gaussian noise on the bootstrap action (σ = 0.1, clip 0.25, scaled
// for the [0,1] action range).
type smoothedHead struct{ detHead }

const (
	td3TargetNoise = 0.1
	td3NoiseClip   = 0.25
)

// target perturbs the target actor's output in place — that network never
// runs a backward pass, so its output buffer is scratch. Noise is drawn for
// non-terminal rows only, in ascending sample order: the RNG sequence of the
// per-sample reference.
func (h *smoothedHead) target(l *ActorCritic, n int) (actions, logPi []float64) {
	actions, logPi = h.detHead.target(l, n)
	d := l.cfg.ActionDim
	for i := 0; i < n; i++ {
		if l.arena.done[i] {
			continue
		}
		row := actions[i*d : (i+1)*d]
		for j := range row {
			eps := l.rng.Normal(0, td3TargetNoise)
			row[j] += math.Max(-td3NoiseClip, math.Min(td3NoiseClip, eps))
		}
		Clip01(row)
	}
	return actions, logPi
}
