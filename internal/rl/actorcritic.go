package rl

import (
	"fmt"
	"io"
	"math"

	"github.com/deeppower/deeppower/internal/nn"
	"github.com/deeppower/deeppower/internal/sim"
)

// DDPGConfig parameterizes the actor–critic learner. It is named for the
// paper's algorithm; NewTD3 and NewSAC take the same configuration. The
// networks are the paper's (§4.6): 32-24-16 ReLU, and for the deterministic
// variants a sigmoid output bounding actions to [0,1]; learningRate, gamma
// and tau are constants.
type DDPGConfig struct {
	StateDim, ActionDim int
	// actorHidden and criticHidden default to [32, 24, 16]; only this
	// package's tests shrink them.
	actorHidden  []int
	criticHidden [3]int
	// TwoHeadActor selects the paper's §4.6 actor topology: a shared
	// fully-connected trunk feeding two separate per-parameter heads
	// (~2k parameters). Off = a plain sequential MLP. Deterministic
	// variants only.
	TwoHeadActor bool
	// Seed drives weight init and the learner's own draws.
	Seed int64
}

func (c DDPGConfig) withDefaults(algo string) (DDPGConfig, error) {
	if c.StateDim <= 0 || c.ActionDim <= 0 {
		return c, fmt.Errorf("rl: %s needs positive state/action dims, got %d/%d",
			algo, c.StateDim, c.ActionDim)
	}
	if c.actorHidden == nil {
		c.actorHidden = []int{32, 24, 16}
	}
	if c.criticHidden == [3]int{} {
		c.criticHidden = [3]int{32, 24, 16}
	}
	return c, nil
}

// variant is everything in which DDPG, TD3 and SAC differ, chosen once at
// construction: how many critics regress onto the bootstrap target (their
// minimum is the target value), how often the policy steps, the entropy
// temperature, and the policy head. Update reads these as data; it never
// asks which algorithm it is running.
type variant struct {
	// name prefixes the RNG stream names, which are part of the numerics:
	// weights are drawn from "<name>-init", the head's own draws from
	// draws.
	name  string
	draws string
	// critics is 1 (DDPG) or 2 (the twin critics of TD3 and SAC).
	critics int
	// delay steps the policy and the targets every delay-th update (TD3: 2).
	delay int
	// alpha is SAC's fixed entropy temperature; 0 for a deterministic policy.
	alpha float64
	// finalInit re-draws the actor's and critics' output layers uniform in
	// ±finalInit (Lillicrap et al.): tiny weights keep the sigmoid outputs
	// near 0.5 at the start, away from the corners where its vanishing
	// gradient would freeze the policy. 0 keeps the Xavier draw.
	finalInit float64
	newHead   func() policyHead
}

var (
	ddpgVariant = &variant{name: "ddpg", critics: 1, delay: 1, finalInit: 3e-3,
		newHead: func() policyHead { return &detHead{} }}
	// TD3 (Fujimoto et al. 2018): twin critics curb Q overestimation,
	// target-policy smoothing regularizes the bootstrap, and delayed policy
	// updates stabilize training.
	td3Variant = &variant{name: "td3", draws: "td3-smooth", critics: 2, delay: 2, finalInit: 3e-3,
		newHead: func() policyHead { return &smoothedHead{} }}
	// SAC (Haarnoja et al. 2018): a squashed-Gaussian policy with an
	// entropy bonus, bootstrapping from the live policy.
	sacVariant = &variant{name: "sac", draws: "sac-sample", critics: 2, delay: 1, alpha: 0.05,
		newHead: func() policyHead { return &gaussHead{} }}
)

// policyHead is the policy side of the learner: a deterministic sigmoid actor
// with a target copy (DDPG, TD3) or a squashed Gaussian that bootstraps from
// the live policy (SAC).
type policyHead interface {
	// build draws the actor from rng, and its target copy if the head keeps
	// one.
	build(l *ActorCritic, rng *sim.RNG) (actor, target nn.Network, err error)
	// act maps n rows of raw actor output onto greedy actions in [0,1].
	act(l *ActorCritic, raw []float64, n int) []float64
	// sample draws one action from the policy given one row of raw output.
	sample(l *ActorCritic, raw []float64) []float64
	// target returns the bootstrap actions for the arena's next states and
	// their log-probabilities, both aliasing head or network scratch.
	target(l *ActorCritic, n int) (actions, logPi []float64)
	// improve takes one policy step on the arena's states — ascent through
	// the critics' input gradient — moves the target copy if there is one,
	// and returns the policy loss.
	improve(l *ActorCritic, n int) float64
}

// ActorCritic is the one actor–critic learner behind DDPG (Algorithm 2: actor
// π_θ, critic Q_w and their targets), TD3 and SAC.
type ActorCritic struct {
	cfg  DDPGConfig
	v    *variant
	head policyHead

	Actor nn.Network
	// ActorTarget is nil when the head bootstraps from the live policy.
	ActorTarget nn.Network
	Critics     []*Critic
	Targets     []*Critic

	actorOpt   *nn.Adam
	criticOpts []*nn.Adam
	// rng is the head's own draw stream (nil when it draws nothing).
	rng     *sim.RNG
	updates int
	guard   guard

	// arena holds the reused flat minibatch buffers; qT the target critics'
	// output rows.
	arena trainArena
	qT    [][]float64
}

// NewDDPG builds the paper's agent.
func NewDDPG(cfg DDPGConfig) (*ActorCritic, error) { return newActorCritic(cfg, ddpgVariant) }

// NewTD3 builds a twin-delayed DDPG agent.
func NewTD3(cfg DDPGConfig) (*ActorCritic, error) { return newActorCritic(cfg, td3Variant) }

// NewSAC builds a soft actor-critic agent. The actor outputs (µ, logσ) per
// action dimension; actions are tanh-squashed and affinely mapped to [0,1].
func NewSAC(cfg DDPGConfig) (*ActorCritic, error) { return newActorCritic(cfg, sacVariant) }

func newActorCritic(cfg DDPGConfig, v *variant) (*ActorCritic, error) {
	full, err := cfg.withDefaults(v.name)
	if err != nil {
		return nil, err
	}
	l := &ActorCritic{cfg: full, v: v, head: v.newHead(), qT: make([][]float64, v.critics)}
	// The draw order — actor, then the critics in order — is part of the
	// numerics.
	rng := sim.NewRNG(sim.SubSeed(full.Seed, v.name+"-init"))
	if l.Actor, l.ActorTarget, err = l.head.build(l, rng); err != nil {
		return nil, err
	}
	for k := 0; k < v.critics; k++ {
		c := NewCritic(full.StateDim, full.ActionDim, full.criticHidden, rng)
		if v.finalInit > 0 {
			shrinkFinalLayer(c.out, v.finalInit)
		}
		l.Critics = append(l.Critics, c)
		l.Targets = append(l.Targets, c.Clone())
	}
	if v.draws != "" {
		l.rng = sim.NewRNG(sim.SubSeed(full.Seed, v.draws))
	}
	l.guard.rebuild = l.resetOptimizers
	l.resetOptimizers()
	l.rewire()
	return l, nil
}

// rewire points the guard at the current network objects — after
// construction, or after a load replaced them.
func (l *ActorCritic) rewire() {
	live := append([]*nn.Dense(nil), l.Actor.Params()...)
	var targets []*nn.Dense
	if l.ActorTarget != nil {
		targets = append(targets, l.ActorTarget.Params()...)
	}
	for k, c := range l.Critics {
		live = append(live, c.Layers()...)
		targets = append(targets, l.Targets[k].Layers()...)
	}
	l.guard.watch(live, targets)
}

func (l *ActorCritic) resetOptimizers() {
	l.actorOpt = newAdam(l.Actor.Params())
	l.criticOpts = l.criticOpts[:0]
	for _, c := range l.Critics {
		l.criticOpts = append(l.criticOpts, newAdam(c.Layers()))
	}
}

// shrinkFinalLayer rescales a layer's weights to uniform ±limit.
func shrinkFinalLayer(l *nn.Dense, limit float64) {
	var maxAbs float64
	for _, w := range l.W {
		maxAbs = math.Max(maxAbs, math.Abs(w))
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

// Act returns the greedy policy action for a state, in [0,1]^dim. The
// returned slice is freshly allocated.
func (l *ActorCritic) Act(state []float64) []float64 {
	return append([]float64(nil), l.head.act(l, l.Actor.Forward(state), 1)...)
}

// ActNoisy returns Act plus exploration noise, clipped to [0,1] (Algorithm 2
// line 5: a_t = π_θ(s_t) + N(µ,δ)).
func (l *ActorCritic) ActNoisy(state []float64, noise Noise) []float64 {
	a := l.Act(state)
	n := noise.Sample(len(a))
	for i := range a {
		a[i] += n[i]
	}
	return Clip01(a)
}

// SampleAction draws an action from the policy itself: SAC's reparameterized
// squashed-Gaussian draw; for a deterministic policy, Act.
func (l *ActorCritic) SampleAction(state []float64) []float64 {
	return l.head.sample(l, l.Actor.Forward(state))
}

// ActBatch evaluates the greedy policy for n row-major states packed in
// states ([n×StateDim]) and returns the [n×ActionDim] action rows. The
// result aliases internal buffers — consume it before the next
// Forward/ForwardBatch/Update call. Each row is bit-identical to Act on the
// corresponding state (ForwardBatch preserves per-sample accumulation order
// exactly).
func (l *ActorCritic) ActBatch(states []float64, n int) []float64 {
	return l.head.act(l, l.Actor.ForwardBatch(states, n), n)
}

// Update performs one gradient step on a minibatch (Algorithm 2 lines 14–18)
// and returns the critic loss (the mean over the critics) and the actor loss
// (NaN on a step the policy delay skips).
//
// The step runs on the batched nn kernels over reused flat buffers: a
// steady-state call performs zero heap allocations and is bit-identical to
// the per-sample reference (updatePerSample, in the tests), including the
// order of the head's RNG draws.
//
// No pass opens by clearing gradients: every backward here is followed by
// its optimizer's Step, which leaves them zero, and the policy step reads the
// critic's action gradient without accumulating any weight gradient
// (TestGradientsZeroBetweenUpdates).
//
// Update is divergence-guarded (see guard): a step that produces a
// non-finite loss or weight is rolled back and skipped, and reports zero
// losses.
func (l *ActorCritic) Update(batch []Transition) (criticLoss, actorLoss float64) {
	if len(batch) == 0 {
		return 0, 0
	}
	n := len(batch)
	inv := 1 / float64(n)
	l.guard.snapshot()
	l.updates++
	ar := &l.arena
	ar.load(batch, l.cfg.StateDim, l.cfg.ActionDim, l.Actor.OutDim())

	// Bootstrap target y = r + γ·(min_k Q'_k(s', a') − α·log π(a'|s')), with
	// a' from the head. Terminal rows are computed batch-wide and masked out
	// here; the head draws no RNG for them, so the discarded work cannot
	// perturb determinism. A deterministic head reports log π = 0.
	a2, logPi := l.head.target(l, n)
	for k, t := range l.Targets {
		l.qT[k] = t.ForwardBatch(ar.next, a2, n)
	}
	for i := 0; i < n; i++ {
		y := ar.rewards[i]
		if !ar.done[i] {
			q := l.qT[0][i]
			for _, qk := range l.qT[1:] {
				q = math.Min(q, qk[i])
			}
			y += gamma * (q - l.v.alpha*logPi[i])
		}
		ar.y[i] = y
	}

	// Critics: each minimizes Σ (y_i − Q_w(s_i, a_i))².
	for k, c := range l.Critics {
		q := c.ForwardBatch(ar.states, ar.actions, n)
		var loss float64
		for i := 0; i < n; i++ {
			diff := q[i] - ar.y[i]
			loss += diff * diff * inv
			ar.dq[i] = 2 * diff * inv
		}
		c.BackwardBatch(ar.dq, n)
		l.criticOpts[k].Step()
		criticLoss += loss
	}
	criticLoss /= float64(len(l.Critics))

	// Policy and targets, every delay-th update. The actor loss only counts
	// against the guard on a step that computed one.
	actorLoss = math.NaN()
	finite := isFinite(criticLoss)
	if l.updates%l.v.delay == 0 {
		actorLoss = l.head.improve(l, n)
		finite = finite && isFinite(actorLoss)
		for k, t := range l.Targets {
			t.SoftUpdateFrom(l.Critics[k], tau)
		}
	}
	if l.guard.diverged(finite) {
		return 0, 0
	}
	return criticLoss, actorLoss
}

// Divergences reports how many updates were rolled back for producing
// non-finite losses or weights.
func (l *ActorCritic) Divergences() uint64 { return l.guard.divergences }

// NumParams reports actor parameter count (the paper quotes ~2096, §5.5).
func (l *ActorCritic) NumParams() int { return l.Actor.NumParams() }

// SavePolicy writes the trained actor network as a sealed KindPolicy
// container (crash-detectable: magic + CRC; see internal/ckpt).
func (l *ActorCritic) SavePolicy(w io.Writer) error { return savePolicyNet(w, l.Actor) }

// LoadPolicy replaces the actor (and its target) with a saved network of the
// same input and output widths, from a sealed KindPolicy container.
func (l *ActorCritic) LoadPolicy(r io.Reader) error {
	m, err := loadPolicyNet(r)
	if err != nil {
		return err
	}
	if m.InDim() != l.Actor.InDim() || m.OutDim() != l.Actor.OutDim() {
		return fmt.Errorf("rl: loaded policy is %d→%d, %s agent expects %d→%d",
			m.InDim(), m.OutDim(), l.v.name, l.Actor.InDim(), l.Actor.OutDim())
	}
	l.Actor = m
	if l.ActorTarget != nil {
		l.ActorTarget = m.CloneNet()
	}
	// The critics were not replaced: they keep their optimizer moments.
	l.actorOpt = newAdam(m.Params())
	l.rewire()
	return nil
}
