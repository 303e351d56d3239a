package rl

import "math"

// The per-sample references: the pre-batching train steps, one transition at
// a time through every network with allocating scratch. They are what
// TestBatchBitIdentity compares the batched Update methods against and the
// baseline BenchmarkTrainStep rates them by. Unlike Update they branch on the
// algorithm freely — each branch is the textbook form of that algorithm — and
// they carry no divergence guard (TestDivergenceGuard pins that).

// updatePerSample is the actor–critic reference for DDPG, TD3 and SAC.
func (l *ActorCritic) updatePerSample(batch []Transition) (criticLoss, actorLoss float64) {
	if len(batch) == 0 {
		return 0, 0
	}
	inv := 1 / float64(len(batch))
	l.updates++
	_, gaussian := l.head.(*gaussHead)
	_, smoothed := l.head.(*smoothedHead)

	losses := make([]float64, len(l.Critics))
	for _, c := range l.Critics {
		c.ZeroGrad()
	}
	for _, tr := range batch {
		y := tr.Reward
		if !tr.Done {
			minQ := func(a2 []float64) float64 {
				q := l.Targets[0].Forward(tr.NextState, a2)
				for _, t := range l.Targets[1:] {
					q = math.Min(q, t.Forward(tr.NextState, a2))
				}
				return q
			}
			if gaussian {
				// y = r + γ·(min_k Q'_k(s', ã') − α·logπ(ã'|s')).
				next := refGaussSample(l, tr.NextState)
				y += gamma * (minQ(next.a01) - l.v.alpha*next.logPi)
			} else {
				// y = r + γ·min_k Q'_k(s', π'(s') [+ clipped noise]).
				a2 := append([]float64(nil), l.ActorTarget.Forward(tr.NextState)...)
				if smoothed {
					for i := range a2 {
						eps := l.rng.Normal(0, td3TargetNoise)
						a2[i] += math.Max(-td3NoiseClip, math.Min(td3NoiseClip, eps))
					}
					Clip01(a2)
				}
				y += gamma * minQ(a2)
			}
		}
		for k, c := range l.Critics {
			diff := c.Forward(tr.State, tr.Action) - y
			losses[k] += diff * diff * inv
			c.Backward(2 * diff * inv)
		}
	}
	for k, opt := range l.criticOpts {
		opt.Step()
		criticLoss += losses[k]
	}
	criticLoss /= float64(len(l.Critics))

	if l.updates%l.v.delay != 0 {
		return criticLoss, math.NaN()
	}
	l.Actor.ZeroGrad()
	d := l.cfg.ActionDim
	for _, tr := range batch {
		if !gaussian {
			// Maximize Q_1(s, π_θ(s)): dL_a/da through the first critic.
			a := append([]float64(nil), l.Actor.Forward(tr.State)...)
			actorLoss += -l.Critics[0].Forward(tr.State, a) * inv
			_, da := l.Critics[0].Backward(-inv)
			l.Actor.Backward(da)
			continue
		}
		// Minimize α·logπ(ã|s) − min_k Q_k(s, ã) with the reparameterization
		// trick through the tanh squash. Each critic caches its own forward
		// pass, so the min critic can backprop directly.
		sp := refGaussSample(l, tr.State)
		q1 := l.Critics[0].Forward(tr.State, sp.a01)
		q2 := l.Critics[1].Forward(tr.State, sp.a01)
		minC, q := l.Critics[0], q1
		if q2 < q1 {
			minC, q = l.Critics[1], q2
		}
		actorLoss += (l.v.alpha*sp.logPi - q) * inv
		_, dqda := minC.Backward(1) // dQ/da01

		// Chain into (dL/dµ, dL/d rawLogStd) for the actor outputs.
		grad := make([]float64, 2*d)
		for i := 0; i < d; i++ {
			sech2 := 1 - sp.aTanh[i]*sp.aTanh[i] // da_tanh/du
			da01du := 0.5 * sech2
			dLogPiDu := 2 * sp.aTanh[i] * sech2 / (sech2 + sacEps)
			grad[i] = inv * (l.v.alpha*dLogPiDu - dqda[i]*da01du)
			// u depends on logσ via σ·ε; logπ also carries the explicit −logσ
			// term. Chain through the tanh bounding of logσ to reach the raw
			// network output.
			duDLogStd := sp.std[i] * sp.eps[i]
			dLdLogStd := l.v.alpha*(dLogPiDu*duDLogStd-1) - dqda[i]*da01du*duDLogStd
			grad[d+i] = inv * dLdLogStd * sp.dLogStdDRaw[i]
		}
		l.Actor.Backward(grad)
	}
	// Drop critic gradients accumulated during the actor pass.
	for _, c := range l.Critics {
		c.ZeroGrad()
	}
	l.actorOpt.Step()
	if l.ActorTarget != nil {
		l.ActorTarget.SoftUpdateNet(l.Actor, tau)
	}
	for k, t := range l.Targets {
		t.SoftUpdateFrom(l.Critics[k], tau)
	}
	return criticLoss, actorLoss
}

// refGaussDraw carries one reparameterized draw and everything the chain
// rule needs.
type refGaussDraw struct {
	a01, aTanh, eps, std []float64
	dLogStdDRaw          []float64
	logPi                float64
}

// refGaussSample draws a reparameterized action from SAC's policy at state:
// the actor output splits into means and log-stds, the log-std smoothly
// bounded via tanh (logStdMin..logStdMax).
func refGaussSample(l *ActorCritic, state []float64) refGaussDraw {
	raw := l.Actor.Forward(state)
	d := l.cfg.ActionDim
	mu := append([]float64(nil), raw[:d]...)
	out := refGaussDraw{
		a01: make([]float64, d), aTanh: make([]float64, d),
		eps: make([]float64, d), std: make([]float64, d),
		dLogStdDRaw: make([]float64, d),
	}
	half := 0.5 * (logStdMax - logStdMin)
	for i := 0; i < d; i++ {
		t := math.Tanh(raw[d+i])
		logStd := logStdMin + half*(t+1)
		out.dLogStdDRaw[i] = half * (1 - t*t)
		out.std[i] = math.Exp(logStd)
		out.eps[i] = l.rng.NormFloat64()
		u := mu[i] + out.std[i]*out.eps[i]
		out.aTanh[i] = math.Tanh(u)
		out.a01[i] = (out.aTanh[i] + 1) / 2
		out.logPi += -0.5*out.eps[i]*out.eps[i] - logStd - 0.5*math.Log(2*math.Pi) -
			math.Log(1-out.aTanh[i]*out.aTanh[i]+sacEps)
	}
	return out
}

// Forward is the critic's per-sample reference: Q(s, a) for one state,
// caching activations in the layers for Backward.
func (c *Critic) Forward(state, action []float64) float64 {
	h1 := c.l1.Forward(state)
	concat := append(append([]float64(nil), h1...), action...)
	return c.out.Forward(c.l3.Forward(c.l2.Forward(concat)))[0]
}

// Backward propagates dL/dQ of the most recent Forward, accumulating weight
// gradients, and returns (dL/dstate, dL/daction).
func (c *Critic) Backward(dq float64) (dstate, daction []float64) {
	dconcat := c.l2.Backward(c.l3.Backward(c.out.Backward([]float64{dq})))
	h1Dim := c.l1.Out
	// Copy the action slice out before l1.Backward runs: dconcat aliases
	// l2's scratch.
	daction = append([]float64(nil), dconcat[h1Dim:]...)
	return c.l1.Backward(dconcat[:h1Dim]), daction
}

// ZeroGrad clears accumulated gradients. Only the references open a pass
// with it; Update relies on Adam.Step having left them zero.
func (c *Critic) ZeroGrad() {
	for _, l := range c.Layers() {
		l.ZeroGrad()
	}
}

// updatePerSample is the DQN/DDQN reference.
func (d *DQN) updatePerSample(batch []Transition) (loss float64) {
	if len(batch) == 0 {
		return 0
	}
	inv := 1 / float64(len(batch))
	d.Q.ZeroGrad()
	for _, tr := range batch {
		a := int(tr.Action[0])
		y := tr.Reward
		if !tr.Done {
			if d.cfg.Double {
				sel := Argmax(d.Q.Forward(tr.NextState))
				y += gamma * d.Target.Forward(tr.NextState)[sel]
			} else {
				y += gamma * maxOf(d.Target.Forward(tr.NextState))
			}
		}
		q := d.Q.Forward(tr.State)
		diff := q[a] - y
		loss += diff * diff * inv
		grad := make([]float64, d.cfg.NumActions)
		grad[a] = 2 * diff * inv
		d.Q.Backward(grad)
	}
	d.opt.Step()
	d.Target.SoftUpdateFrom(d.Q, tau)
	return loss
}
