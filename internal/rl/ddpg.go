package rl

import (
	"fmt"
	"io"
	"math"

	"github.com/deeppower/deeppower/internal/nn"
	"github.com/deeppower/deeppower/internal/sim"
)

// DDPGConfig parameterizes a DDPG agent. Zero values select the paper's
// defaults (§4.6): a 32-24-16 actor with ReLU hidden activations and a
// sigmoid output bounding actions to [0,1].
type DDPGConfig struct {
	StateDim, ActionDim int
	// ActorHidden defaults to [32, 24, 16] (§4.6).
	ActorHidden []int
	// CriticHidden defaults to [32, 24, 16].
	CriticHidden [3]int
	// ActorLR and CriticLR default to 1e-3.
	ActorLR, CriticLR float64
	// Gamma is the discount factor (default 0.95).
	Gamma float64
	// Tau is the soft target-update coefficient (default 0.01).
	Tau float64
	// TwoHeadActor selects the paper's §4.6 actor topology: a shared
	// fully-connected trunk feeding two separate per-parameter heads
	// (~2k parameters). Off = a plain sequential MLP.
	TwoHeadActor bool
	// Seed drives weight init and replay sampling.
	Seed int64
}

func (c DDPGConfig) withDefaults() (DDPGConfig, error) {
	if c.StateDim <= 0 || c.ActionDim <= 0 {
		return c, fmt.Errorf("rl: DDPG needs positive state/action dims, got %d/%d",
			c.StateDim, c.ActionDim)
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
	return c, nil
}

// DDPG is the deep deterministic policy gradient agent of Algorithm 2:
// actor π_θ, critic Q_w, and their targets π_θ', Q_w'.
type DDPG struct {
	cfg          DDPGConfig
	Actor        nn.Network
	ActorTarget  nn.Network
	Critic       *Critic
	CriticTarget *Critic

	actorOpt  *nn.Adam
	criticOpt *nn.Adam

	divergences uint64

	// actorParams caches Actor.Params() so the per-update finiteness scan
	// and snapshot never allocate.
	actorParams []*nn.Dense

	// Pre-update weight snapshot for divergence rollback: flat copies of
	// every live and target layer's (W, B), preallocated once so the
	// steady-state train step stays allocation-free.
	snapLayers []*nn.Dense
	snapW      [][]float64
	snapB      [][]float64

	// arena holds the reused flat minibatch buffers of the batched path.
	arena trainArena
}

// NewDDPG builds an agent.
func NewDDPG(cfg DDPGConfig) (*DDPG, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(full.Seed).Stream("ddpg-init")
	var actor nn.Network
	if full.TwoHeadActor {
		if full.ActionDim != 2 {
			return nil, fmt.Errorf("rl: two-head actor requires ActionDim 2, got %d", full.ActionDim)
		}
		actor = nn.NewPaperActor(full.StateDim, rng)
	} else {
		sizes := append([]int{full.StateDim}, full.ActorHidden...)
		sizes = append(sizes, full.ActionDim)
		actor = nn.NewMLP(sizes, nn.ReLU, nn.Sigmoid, rng)
	}
	critic := NewCritic(full.StateDim, full.ActionDim, full.CriticHidden, rng)
	// Lillicrap et al.'s final-layer initialization: tiny weights keep the
	// sigmoid outputs near 0.5 at the start, avoiding early corner
	// saturation (where the sigmoid's vanishing gradient would freeze the
	// policy).
	for _, l := range actor.Params() {
		if l.Act == nn.Sigmoid {
			shrinkFinalLayer(l, 3e-3)
		}
	}
	shrinkFinalLayer(critic.out, 3e-3)
	d := &DDPG{
		cfg:          full,
		Actor:        actor,
		ActorTarget:  actor.CloneNet(),
		Critic:       critic,
		CriticTarget: critic.Clone(),
	}
	d.actorOpt = nn.NewAdam(actor.Params(), full.ActorLR)
	d.criticOpt = nn.NewAdam(critic.Layers(), full.CriticLR)
	d.criticOpt.MaxGradNorm = 5
	d.actorOpt.MaxGradNorm = 5
	d.rebuildCaches()
	return d, nil
}

// rebuildCaches refreshes the cached parameter lists and the rollback
// snapshot arena after the network objects change (construction,
// LoadPolicy).
func (d *DDPG) rebuildCaches() {
	d.actorParams = d.Actor.Params()
	d.snapLayers = d.snapLayers[:0]
	d.snapLayers = append(d.snapLayers, d.Actor.Params()...)
	d.snapLayers = append(d.snapLayers, d.ActorTarget.Params()...)
	d.snapLayers = append(d.snapLayers, d.Critic.Layers()...)
	d.snapLayers = append(d.snapLayers, d.CriticTarget.Layers()...)
	d.snapW = d.snapW[:0]
	d.snapB = d.snapB[:0]
	for _, l := range d.snapLayers {
		d.snapW = append(d.snapW, make([]float64, len(l.W)))
		d.snapB = append(d.snapB, make([]float64, len(l.B)))
	}
}

// snapshot copies every live and target weight into the preallocated
// rollback arena.
func (d *DDPG) snapshot() {
	for i, l := range d.snapLayers {
		copy(d.snapW[i], l.W)
		copy(d.snapB[i], l.B)
	}
}

// rollback restores the snapshot taken at the top of the failed update and
// rebuilds the optimizers (their moments may carry the NaN).
func (d *DDPG) rollback() {
	for i, l := range d.snapLayers {
		copy(l.W, d.snapW[i])
		copy(l.B, d.snapB[i])
	}
	d.actorOpt = nn.NewAdam(d.Actor.Params(), d.cfg.ActorLR)
	d.criticOpt = nn.NewAdam(d.Critic.Layers(), d.cfg.CriticLR)
	d.actorOpt.MaxGradNorm = 5
	d.criticOpt.MaxGradNorm = 5
	d.divergences++
}

// shrinkFinalLayer rescales a layer's weights to uniform ±limit.
func shrinkFinalLayer(l *nn.Dense, limit float64) {
	var maxAbs float64
	for _, w := range l.W {
		if a := abs(w); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return
	}
	scale := limit / maxAbs
	for i := range l.W {
		l.W[i] *= scale
	}
	for i := range l.B {
		l.B[i] *= scale
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Act returns the deterministic policy action for a state, in [0,1]^dim.
// The returned slice is freshly allocated.
func (d *DDPG) Act(state []float64) []float64 {
	out := d.Actor.Forward(state)
	return append([]float64(nil), out...)
}

// ActNoisy returns Act plus exploration noise, clipped to [0,1] (Algorithm 2
// line 5: a_t = π_θ(s_t) + N(µ,δ)).
func (d *DDPG) ActNoisy(state []float64, noise Noise) []float64 {
	a := d.Act(state)
	n := noise.Sample(len(a))
	for i := range a {
		a[i] += n[i]
	}
	return clip01(a)
}

// ActBatch evaluates the deterministic policy for n row-major states packed
// in states ([n×StateDim]) and returns the [n×ActionDim] action rows. The
// result aliases the actor's internal forward buffers — consume it before
// the next Forward/ForwardBatch/Update call. Each row is bit-identical to
// Act on the corresponding state (ForwardBatch preserves per-sample
// accumulation order exactly).
func (d *DDPG) ActBatch(states []float64, n int) []float64 {
	return d.Actor.ForwardBatch(states, n)
}

// Update performs one gradient step on a minibatch (Algorithm 2 lines
// 14–18) and returns the critic and actor losses.
//
// The step runs on the batched nn kernels over reused flat buffers: a
// steady-state call performs zero heap allocations and is bit-identical to
// the per-sample reference path (updatePerSample) — the kernels preserve
// per-sample accumulation order exactly.
//
// Update is divergence-guarded: if the step produces a non-finite loss or
// non-finite weights anywhere (possible when faulted telemetry slips a
// pathological transition into replay), the step is rolled back to the
// pre-update weights, the optimizers are rebuilt (their moments may carry
// the NaN), the divergence counter is bumped, and the batch is skipped.
func (d *DDPG) Update(batch []Transition) (criticLoss, actorLoss float64) {
	if len(batch) == 0 {
		return 0, 0
	}
	n := len(batch)
	d.snapshot()
	inv := 1 / float64(n)
	ar := &d.arena
	ar.load(batch, d.cfg.StateDim, d.cfg.ActionDim, d.cfg.ActionDim)

	// Critic: minimize Σ (y_i - Q_w(s_i, a_i))² with
	// y_i = r_i + γ·Q_w'(s'_i, π_θ'(s'_i)). Targets for terminal samples
	// are computed batch-wide but masked out below (no RNG is involved, so
	// the discarded work cannot perturb determinism).
	a2 := d.ActorTarget.ForwardBatch(ar.next, n)
	q2 := d.CriticTarget.ForwardBatch(ar.next, a2, n)
	for i := 0; i < n; i++ {
		y := ar.rewards[i]
		if !ar.done[i] {
			y += d.cfg.Gamma * q2[i]
		}
		ar.y[i] = y
	}
	d.Critic.ZeroGrad()
	q := d.Critic.ForwardBatch(ar.states, ar.actions, n)
	for i := 0; i < n; i++ {
		diff := q[i] - ar.y[i]
		criticLoss += diff * diff * inv
		ar.dq[i] = 2 * diff * inv
	}
	d.Critic.BackwardBatch(ar.dq, n)
	d.criticOpt.Step()

	// Actor: maximize Σ Q_w(s_i, π_θ(s_i)) — i.e. descend on L_a = -Q.
	d.Actor.ZeroGrad()
	a := d.Actor.ForwardBatch(ar.states, n)
	q = d.Critic.ForwardBatch(ar.states, a, n)
	for i := 0; i < n; i++ {
		actorLoss += -q[i] * inv
		ar.dq[i] = -inv // dL_a/dQ per sample
	}
	_, da := d.Critic.BackwardBatch(ar.dq, n)
	d.Actor.BackwardBatch(da, n)
	// The actor pass accumulated unwanted critic gradients; drop them.
	d.Critic.ZeroGrad()
	d.actorOpt.Step()

	// Soft-update targets.
	d.ActorTarget.SoftUpdateNet(d.Actor, d.cfg.Tau)
	d.CriticTarget.SoftUpdateFrom(d.Critic, d.cfg.Tau)

	if !isFinite(criticLoss) || !isFinite(actorLoss) || !d.weightsFinite() {
		d.rollback()
		return 0, 0
	}
	return criticLoss, actorLoss
}

// updatePerSample is the pre-batching reference implementation: one
// transition at a time through all four networks, with allocating snapshot
// clones. It is retained as the baseline for BenchmarkTrainStep and for the
// bit-identity tests proving the batched Update changed speed, not
// numerics.
func (d *DDPG) updatePerSample(batch []Transition) (criticLoss, actorLoss float64) {
	if len(batch) == 0 {
		return 0, 0
	}
	// Snapshot for rollback; the networks are ~2k parameters, so this is
	// cheap next to the gradient pass itself.
	snapActor, snapActorT := d.Actor.CloneNet(), d.ActorTarget.CloneNet()
	snapCritic, snapCriticT := d.Critic.Clone(), d.CriticTarget.Clone()
	inv := 1 / float64(len(batch))

	d.Critic.ZeroGrad()
	for _, tr := range batch {
		y := tr.Reward
		if !tr.Done {
			a2 := d.ActorTarget.Forward(tr.NextState)
			y += d.cfg.Gamma * d.CriticTarget.Forward(tr.NextState, a2)
		}
		q := d.Critic.Forward(tr.State, tr.Action)
		diff := q - y
		criticLoss += diff * diff * inv
		d.Critic.Backward(2 * diff * inv)
	}
	d.criticOpt.Step()

	d.Actor.ZeroGrad()
	for _, tr := range batch {
		a := d.Actor.Forward(tr.State)
		aCopy := append([]float64(nil), a...)
		q := d.Critic.Forward(tr.State, aCopy)
		actorLoss += -q * inv
		_, da := d.Critic.Backward(-inv) // dL_a/da through the critic
		d.Actor.Backward(da)
	}
	d.Critic.ZeroGrad()
	d.actorOpt.Step()

	d.ActorTarget.SoftUpdateNet(d.Actor, d.cfg.Tau)
	d.CriticTarget.SoftUpdateFrom(d.Critic, d.cfg.Tau)

	if !isFinite(criticLoss) || !isFinite(actorLoss) || !d.weightsFinite() {
		d.Actor, d.ActorTarget = snapActor, snapActorT
		d.Critic, d.CriticTarget = snapCritic, snapCriticT
		d.actorOpt = nn.NewAdam(d.Actor.Params(), d.cfg.ActorLR)
		d.criticOpt = nn.NewAdam(d.Critic.Layers(), d.cfg.CriticLR)
		d.actorOpt.MaxGradNorm = 5
		d.criticOpt.MaxGradNorm = 5
		d.divergences++
		d.rebuildCaches()
		return 0, 0
	}
	return criticLoss, actorLoss
}

// Divergences reports how many updates were rolled back for producing
// non-finite losses or weights.
func (d *DDPG) Divergences() uint64 { return d.divergences }

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// weightsFinite scans every parameter of the live networks using the cached
// layer lists (no allocation on the hot path).
func (d *DDPG) weightsFinite() bool {
	for _, l := range d.actorParams {
		if !denseFinite(l) {
			return false
		}
	}
	for _, l := range d.Critic.Layers() {
		if !denseFinite(l) {
			return false
		}
	}
	return true
}

func denseFinite(l *nn.Dense) bool {
	for _, w := range l.W {
		if !isFinite(w) {
			return false
		}
	}
	for _, b := range l.B {
		if !isFinite(b) {
			return false
		}
	}
	return true
}

// QValue exposes the critic's estimate for diagnostics.
func (d *DDPG) QValue(state, action []float64) float64 {
	return d.Critic.Forward(state, action)
}

// NumParams reports actor parameter count (the paper quotes ~2096, §5.5).
func (d *DDPG) NumParams() int { return d.Actor.NumParams() }

// SavePolicy writes the trained actor network as a sealed KindPolicy
// container (crash-detectable: magic + CRC; see internal/ckpt).
func (d *DDPG) SavePolicy(w io.Writer) error { return savePolicyNet(w, d.Actor) }

// LoadPolicy replaces the actor (and its target) with a saved network
// (either topology) from a sealed KindPolicy container.
func (d *DDPG) LoadPolicy(r io.Reader) error {
	m, err := loadPolicyNet(r)
	if err != nil {
		return err
	}
	if m.InDim() != d.cfg.StateDim || m.OutDim() != d.cfg.ActionDim {
		return fmt.Errorf("rl: loaded policy is %d→%d, agent expects %d→%d",
			m.InDim(), m.OutDim(), d.cfg.StateDim, d.cfg.ActionDim)
	}
	d.Actor = m
	d.ActorTarget = m.CloneNet()
	d.actorOpt = nn.NewAdam(d.Actor.Params(), d.cfg.ActorLR)
	d.rebuildCaches()
	return nil
}
