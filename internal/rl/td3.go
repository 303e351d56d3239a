package rl

import (
	"fmt"
	"io"
	"math"

	"github.com/deeppower/deeppower/internal/nn"
	"github.com/deeppower/deeppower/internal/sim"
)

// TD3Config parameterizes a Twin Delayed DDPG agent (Fujimoto et al. 2018)
// — the modern successor to the paper's DDPG, provided as an agent ablation:
// twin critics curb Q overestimation, target-policy smoothing regularizes
// the bootstrap, and delayed actor updates stabilize training.
type TD3Config struct {
	StateDim, ActionDim int
	// ActorHidden defaults to [32, 24, 16]; CriticHidden to the same.
	ActorHidden  []int
	CriticHidden [3]int
	// ActorLR and CriticLR default to 1e-3.
	ActorLR, CriticLR float64
	// Gamma defaults to 0.95; Tau to 0.01.
	Gamma, Tau float64
	// PolicyDelay updates the actor every Nth critic update (default 2).
	PolicyDelay int
	// TargetNoise and NoiseClip shape target-policy smoothing
	// (defaults 0.1, 0.25 — scaled for the [0,1] action range).
	TargetNoise, NoiseClip float64
	Seed                   int64
}

func (c TD3Config) withDefaults() (TD3Config, error) {
	if c.StateDim <= 0 || c.ActionDim <= 0 {
		return c, fmt.Errorf("rl: TD3 needs positive dims, got %d/%d", c.StateDim, c.ActionDim)
	}
	if c.ActorHidden == nil {
		c.ActorHidden = []int{32, 24, 16}
	}
	if c.CriticHidden == [3]int{} {
		c.CriticHidden = [3]int{32, 24, 16}
	}
	if c.ActorLR == 0 {
		c.ActorLR = 1e-3
	}
	if c.CriticLR == 0 {
		c.CriticLR = 1e-3
	}
	if c.Gamma == 0 {
		c.Gamma = 0.95
	}
	if c.Gamma < 0 || c.Gamma >= 1 {
		return c, fmt.Errorf("rl: gamma %v outside [0,1)", c.Gamma)
	}
	if c.Tau == 0 {
		c.Tau = 0.01
	}
	if c.PolicyDelay == 0 {
		c.PolicyDelay = 2
	}
	if c.TargetNoise == 0 {
		c.TargetNoise = 0.1
	}
	if c.NoiseClip == 0 {
		c.NoiseClip = 0.25
	}
	return c, nil
}

// TD3 is a twin-delayed DDPG agent.
type TD3 struct {
	cfg TD3Config

	Actor            nn.Network
	ActorTarget      nn.Network
	Critic1, Critic2 *Critic
	Target1, Target2 *Critic

	actorOpt, c1Opt, c2Opt *nn.Adam
	rng                    *sim.RNG
	updates                int

	// arena and a2B are the reused flat minibatch buffers of the batched
	// update path ([n×dim] row-major, grown on demand).
	arena trainArena
	a2B   []float64
}

// NewTD3 builds an agent.
func NewTD3(cfg TD3Config) (*TD3, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(full.Seed).Stream("td3-init")
	sizes := append([]int{full.StateDim}, full.ActorHidden...)
	sizes = append(sizes, full.ActionDim)
	actor := nn.NewMLP(sizes, nn.ReLU, nn.Sigmoid, rng)
	for _, l := range actor.Params() {
		if l.Act == nn.Sigmoid {
			shrinkFinalLayer(l, 3e-3)
		}
	}
	c1 := NewCritic(full.StateDim, full.ActionDim, full.CriticHidden, rng)
	c2 := NewCritic(full.StateDim, full.ActionDim, full.CriticHidden, rng)
	shrinkFinalLayer(c1.out, 3e-3)
	shrinkFinalLayer(c2.out, 3e-3)
	t := &TD3{
		cfg:         full,
		Actor:       actor,
		ActorTarget: actor.CloneNet(),
		Critic1:     c1, Critic2: c2,
		Target1: c1.Clone(), Target2: c2.Clone(),
		rng: sim.NewRNG(full.Seed).Stream("td3-smooth"),
	}
	t.actorOpt = nn.NewAdam(actor.Params(), full.ActorLR)
	t.c1Opt = nn.NewAdam(c1.Layers(), full.CriticLR)
	t.c2Opt = nn.NewAdam(c2.Layers(), full.CriticLR)
	t.actorOpt.MaxGradNorm = 5
	t.c1Opt.MaxGradNorm = 5
	t.c2Opt.MaxGradNorm = 5
	return t, nil
}

// Act returns the deterministic policy action, in [0,1]^dim.
func (t *TD3) Act(state []float64) []float64 {
	out := t.Actor.Forward(state)
	return append([]float64(nil), out...)
}

// ActNoisy adds exploration noise and clips to the action range.
func (t *TD3) ActNoisy(state []float64, noise Noise) []float64 {
	a := t.Act(state)
	n := noise.Sample(len(a))
	for i := range a {
		a[i] += n[i]
	}
	return clip01(a)
}

// ActBatch evaluates the deterministic policy for n row-major states and
// returns the [n×ActionDim] action rows (aliasing the actor's internal
// buffers; consume before the next forward or update). Rows are
// bit-identical to per-state Act calls.
func (t *TD3) ActBatch(states []float64, n int) []float64 {
	return t.Actor.ForwardBatch(states, n)
}

// Update performs one TD3 step and returns the critic losses (actor loss is
// only defined on delayed updates and returned as NaN otherwise).
//
// The step runs on the batched nn kernels over reused flat buffers; it is
// bit-identical to the per-sample reference path (updatePerSample),
// including the target-smoothing RNG draw order, and allocation-free at
// steady state.
func (t *TD3) Update(batch []Transition) (critic1Loss, critic2Loss, actorLoss float64) {
	if len(batch) == 0 {
		return 0, 0, math.NaN()
	}
	n := len(batch)
	inv := 1 / float64(n)
	t.updates++
	ar := &t.arena
	ar.load(batch, t.cfg.StateDim, t.cfg.ActionDim, t.cfg.ActionDim)
	ad := t.cfg.ActionDim
	if cap(t.a2B) < n*ad {
		t.a2B = make([]float64, n*ad)
	}
	t.a2B = t.a2B[:n*ad]

	// Critics: y = r + γ·min_i Q'_i(s', π'(s') + clipped noise). Target
	// actions are forwarded batch-wide, then the clipped smoothing noise is
	// drawn for non-terminal rows only, in ascending sample order — the
	// exact RNG sequence of the per-sample path. Terminal rows are computed
	// but masked out of y below (the discarded forwards involve no RNG, so
	// they cannot perturb determinism).
	copy(t.a2B, t.ActorTarget.ForwardBatch(ar.next, n))
	for i := 0; i < n; i++ {
		if ar.done[i] {
			continue
		}
		row := t.a2B[i*ad : (i+1)*ad]
		for j := range row {
			eps := t.rng.Normal(0, t.cfg.TargetNoise)
			eps = math.Max(-t.cfg.NoiseClip, math.Min(t.cfg.NoiseClip, eps))
			row[j] += eps
		}
		clip01(row)
	}
	q1B := t.Target1.ForwardBatch(ar.next, t.a2B, n)
	q2B := t.Target2.ForwardBatch(ar.next, t.a2B, n)
	for i := 0; i < n; i++ {
		y := ar.rewards[i]
		if !ar.done[i] {
			y += t.cfg.Gamma * math.Min(q1B[i], q2B[i])
		}
		ar.y[i] = y
	}

	t.Critic1.ZeroGrad()
	t.Critic2.ZeroGrad()
	q := t.Critic1.ForwardBatch(ar.states, ar.actions, n)
	for i := 0; i < n; i++ {
		d := q[i] - ar.y[i]
		critic1Loss += d * d * inv
		ar.dq[i] = 2 * d * inv
	}
	t.Critic1.BackwardBatch(ar.dq, n)
	q = t.Critic2.ForwardBatch(ar.states, ar.actions, n)
	for i := 0; i < n; i++ {
		d := q[i] - ar.y[i]
		critic2Loss += d * d * inv
		ar.dq[i] = 2 * d * inv
	}
	t.Critic2.BackwardBatch(ar.dq, n)
	t.c1Opt.Step()
	t.c2Opt.Step()

	actorLoss = math.NaN()
	if t.updates%t.cfg.PolicyDelay == 0 {
		// Delayed actor update through Critic1 only, as in the TD3 paper.
		t.Actor.ZeroGrad()
		actorLoss = 0
		a := t.Actor.ForwardBatch(ar.states, n)
		q = t.Critic1.ForwardBatch(ar.states, a, n)
		for i := 0; i < n; i++ {
			actorLoss += -q[i] * inv
			ar.dq[i] = -inv
		}
		_, da := t.Critic1.BackwardBatch(ar.dq, n)
		t.Actor.BackwardBatch(da, n)
		t.Critic1.ZeroGrad()
		t.actorOpt.Step()

		t.ActorTarget.SoftUpdateNet(t.Actor, t.cfg.Tau)
		t.Target1.SoftUpdateFrom(t.Critic1, t.cfg.Tau)
		t.Target2.SoftUpdateFrom(t.Critic2, t.cfg.Tau)
	}
	return critic1Loss, critic2Loss, actorLoss
}

// updatePerSample is the pre-batching reference implementation, retained as
// the benchmark baseline and the bit-identity oracle for the batched Update.
func (t *TD3) updatePerSample(batch []Transition) (critic1Loss, critic2Loss, actorLoss float64) {
	if len(batch) == 0 {
		return 0, 0, math.NaN()
	}
	inv := 1 / float64(len(batch))
	t.updates++

	t.Critic1.ZeroGrad()
	t.Critic2.ZeroGrad()
	for _, tr := range batch {
		y := tr.Reward
		if !tr.Done {
			a2 := append([]float64(nil), t.ActorTarget.Forward(tr.NextState)...)
			for i := range a2 {
				eps := t.rng.Normal(0, t.cfg.TargetNoise)
				eps = math.Max(-t.cfg.NoiseClip, math.Min(t.cfg.NoiseClip, eps))
				a2[i] += eps
			}
			clip01(a2)
			q1 := t.Target1.Forward(tr.NextState, a2)
			q2 := t.Target2.Forward(tr.NextState, a2)
			y += t.cfg.Gamma * math.Min(q1, q2)
		}
		q := t.Critic1.Forward(tr.State, tr.Action)
		d := q - y
		critic1Loss += d * d * inv
		t.Critic1.Backward(2 * d * inv)

		q = t.Critic2.Forward(tr.State, tr.Action)
		d = q - y
		critic2Loss += d * d * inv
		t.Critic2.Backward(2 * d * inv)
	}
	t.c1Opt.Step()
	t.c2Opt.Step()

	actorLoss = math.NaN()
	if t.updates%t.cfg.PolicyDelay == 0 {
		t.Actor.ZeroGrad()
		actorLoss = 0
		for _, tr := range batch {
			a := append([]float64(nil), t.Actor.Forward(tr.State)...)
			q := t.Critic1.Forward(tr.State, a)
			actorLoss += -q * inv
			_, da := t.Critic1.Backward(-inv)
			t.Actor.Backward(da)
		}
		t.Critic1.ZeroGrad()
		t.actorOpt.Step()

		t.ActorTarget.SoftUpdateNet(t.Actor, t.cfg.Tau)
		t.Target1.SoftUpdateFrom(t.Critic1, t.cfg.Tau)
		t.Target2.SoftUpdateFrom(t.Critic2, t.cfg.Tau)
	}
	return critic1Loss, critic2Loss, actorLoss
}

// NumParams reports the actor parameter count.
func (t *TD3) NumParams() int { return t.Actor.NumParams() }

// SavePolicy writes the trained actor network as a sealed KindPolicy
// container.
func (t *TD3) SavePolicy(w io.Writer) error { return savePolicyNet(w, t.Actor) }

// LoadPolicy replaces the actor (and its target) with a saved network from a
// sealed KindPolicy container.
func (t *TD3) LoadPolicy(r io.Reader) error {
	m, err := loadPolicyNet(r)
	if err != nil {
		return err
	}
	if m.InDim() != t.cfg.StateDim || m.OutDim() != t.cfg.ActionDim {
		return fmt.Errorf("rl: loaded policy is %d→%d, agent expects %d→%d",
			m.InDim(), m.OutDim(), t.cfg.StateDim, t.cfg.ActionDim)
	}
	t.Actor = m
	t.ActorTarget = m.CloneNet()
	t.actorOpt = nn.NewAdam(t.Actor.Params(), t.cfg.ActorLR)
	return nil
}
