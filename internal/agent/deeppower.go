package agent

import (
	"fmt"

	"github.com/deeppower/deeppower/internal/control"
	"github.com/deeppower/deeppower/internal/rl"
	"github.com/deeppower/deeppower/internal/sim"
)

// ActionDim is the paper actor's output width: (BaseFreq, ScalingCoef).
// With Config.Placement a third component — the placement score — widens
// the action space (see Config.Placement).
const ActionDim = 2

// placementActionDim is the widened action width when Placement is on.
const placementActionDim = 3

// BackendName selects the actor–critic variant in Config.
type BackendName string

// Supported backends.
const (
	BackendDDPG BackendName = "ddpg" // the paper's algorithm (default)
	BackendTD3  BackendName = "td3"  // twin-delayed DDPG ablation
)

// backends maps a BackendName onto the constructor of its rl variant; every
// variant takes the same configuration and is driven the same way.
var backends = map[BackendName]func(rl.DDPGConfig) (*rl.ActorCritic, error){
	BackendDDPG: rl.NewDDPG,
	BackendTD3:  rl.NewTD3,
}

// Config parameterizes the DeepPower policy.
type Config struct {
	// LongTime is the DRL agent's step interval (default 1 s, §4.6). The
	// controller's ShortTime is the server tick.
	LongTime sim.Time
	// Reward weights.
	Reward RewardConfig
	// Backend selects the learner: BackendDDPG (default, the paper's
	// algorithm) or BackendTD3.
	Backend BackendName
	// DDPG holds the learner's hyper-parameters, whichever Backend runs
	// them; state/action dims are fixed by the paper.
	DDPG rl.DDPGConfig
	// NoiseMu and NoiseSigma parameterize exploration noise N(µ,δ); the
	// paper defaults to (0.3, 1) — the positive mean avoids early queue
	// congestion (§4.6).
	NoiseMu, NoiseSigma float64
	// NoiseDecay anneals exploration per agent step (default 0.999).
	NoiseDecay float64
	// WarmupSteps selects random actions before learning starts
	// (Algorithm 2 line 7; default 20).
	WarmupSteps int
	// UpdatesPerStep is how many gradient updates run per agent step
	// (default 1, as in Algorithm 2; quick-scale experiments raise it to
	// compensate for fewer steps).
	UpdatesPerStep int
	// Train enables exploration and network updates. Off = pure inference
	// with the current actor.
	Train bool
	// Flat disables the hierarchical mechanism: instead of parameterizing
	// the thread controller, the agent's first action component directly
	// sets one uniform frequency score for every core, once per LongTime.
	// This is the ablation showing why the hierarchy matters.
	Flat bool
	// Classes is the number of heterogeneous core classes the observer
	// distinguishes: the state vector gains 2 dims per class (busy and
	// enabled fractions). 0 keeps the paper's 8-dim state. Snapshots from
	// a homogeneous server leave the extra dims zero.
	Classes int
	// Placement widens the action space with a third component that
	// selects how many threads run on each core class, mapped onto the
	// server topology's placement ladder. Requires Classes > 0 and uses
	// the plain MLP actor (the paper's two-head actor is 2-dim only).
	Placement bool
	// RecordLog retains per-step actions and rewards (Fig. 8).
	RecordLog bool
	// Seed drives exploration and initialization.
	Seed int64
	// batchSize is the replay minibatch (default 64, §5.5), replayCap
	// bounds the experience pool (default 100000), and initialParams seeds
	// the thread controller before the first action (default 0.6, 0.6);
	// only this package's tests change them.
	batchSize, replayCap int
	initialParams        control.Params
}

// withDefaults fills the agent loop's defaults, which DQNPower shares.
func (c Config) withDefaults() Config {
	if c.LongTime == 0 {
		c.LongTime = sim.Second
	}
	if c.WarmupSteps == 0 {
		c.WarmupSteps = 20
	}
	if c.batchSize == 0 {
		c.batchSize = 64
	}
	if c.UpdatesPerStep == 0 {
		c.UpdatesPerStep = 1
	}
	if c.replayCap == 0 {
		c.replayCap = 100000
	}
	if c.initialParams == (control.Params{}) {
		c.initialParams = control.Params{BaseFreq: 0.6, ScalingCoef: 0.6}
	}
	return c
}

// withActorDefaults fills what is specific to the continuous action space:
// the exploration noise, the backend, and the learner's dimensions.
func (c Config) withActorDefaults() Config {
	if c.NoiseMu == 0 && c.NoiseSigma == 0 {
		c.NoiseMu, c.NoiseSigma = 0.3, 1.0
	}
	if c.NoiseDecay == 0 {
		c.NoiseDecay = 0.999
	}
	if c.Backend == "" {
		c.Backend = BackendDDPG
	}
	c.DDPG.StateDim = StateDim + 2*c.Classes
	c.DDPG.ActionDim = ActionDim
	if c.Placement {
		c.DDPG.ActionDim = placementActionDim
		c.DDPG.TwoHeadActor = false // the paper's two-head actor is 2-dim only
	}
	if c.DDPG.Seed == 0 {
		c.DDPG.Seed = c.Seed
	}
	return c
}

// DeepPower is the full framework of Fig. 3 wired as a server.Policy — the
// agent loop of core — with the paper's continuous actions: a DDPG (or TD3)
// actor emitting (BaseFreq, ScalingCoef), plus a placement score with
// Config.Placement.
type DeepPower struct {
	core
}

// New builds a DeepPower policy.
func New(cfg Config) (*DeepPower, error) {
	full := cfg.withDefaults().withActorDefaults()
	if full.Classes < 0 {
		return nil, fmt.Errorf("agent: negative class count %d", full.Classes)
	}
	if full.Placement && full.Classes == 0 {
		return nil, fmt.Errorf("agent: Placement requires Classes > 0")
	}
	newLearner, ok := backends[full.Backend]
	if !ok {
		return nil, fmt.Errorf("agent: unknown backend %q", full.Backend)
	}
	learner, err := newLearner(full.DDPG)
	if err != nil {
		return nil, err
	}
	k := &pairCodec{ActorCritic: learner, cfg: full}
	replay := rl.NewReplay(full.replayCap, sim.NewRNG(sim.SubSeed(sim.SubSeed(full.Seed, "deeppower"), "replay")))
	return &DeepPower{newCore("deeppower", full, k.seeded(full.Seed), replay)}, nil
}

// StepCount reports completed agent steps across all episodes.
func (dp *DeepPower) StepCount() int { return dp.step }

// EnableLog turns on per-step action/reward logging (Fig. 8).
func (dp *DeepPower) EnableLog() { dp.cfg.RecordLog = true }

// pairCodec is the continuous action space: the action is the actor's output
// vector in [0,1]^dim — the (BaseFreq, ScalingCoef) pair, or a triple with
// the placement score — explored with decaying Gaussian noise N(µ,δ).
type pairCodec struct {
	*rl.ActorCritic
	cfg Config // noise parameters and action width

	noise rl.Noise
	rng   *sim.RNG // randomSelect() draws
	// noiseBuf is the reused exploration-noise row for the vectorized path,
	// sized for the widest action space.
	noiseBuf [placementActionDim]float64
}

func (k *pairCodec) seeded(seed int64) codec {
	base := sim.SubSeed(seed, "deeppower")
	fresh := *k
	fresh.noise = &rl.DecayedNoise{
		Inner: rl.NewGaussianNoise(k.cfg.NoiseMu, k.cfg.NoiseSigma, sim.NewRNG(sim.SubSeed(base, "noise"))),
		Scale: 1, Decay: k.cfg.NoiseDecay, Floor: 0.05,
	}
	fresh.rng = sim.NewRNG(sim.SubSeed(base, "warmup-actions"))
	return &fresh
}

// act draws warmup actions uniformly from the codec's own stream; a training
// row gets the codec's own exploration noise — same numerics and draw order
// as ActNoisy on the inline path.
func (k *pairCodec) act(mode actMode, state, row []float64) []float64 {
	switch {
	case mode == actWarmup:
		a := make([]float64, k.cfg.DDPG.ActionDim)
		for i := range a {
			a[i] = k.rng.Float64()
		}
		return a
	case row == nil && mode == actExplore:
		return k.ActNoisy(state, k.noise)
	case row == nil:
		return k.Act(state)
	}
	action := append(make([]float64, 0, len(row)), row...)
	if mode == actExplore {
		noise := k.noiseBuf[:len(row)]
		k.noise.SampleInto(noise)
		for i := range action {
			action[i] += noise[i]
		}
		rl.Clip01(action)
	}
	return action
}

func (k *pairCodec) params(action []float64) control.Params {
	return control.Params{BaseFreq: action[0], ScalingCoef: action[1]}
}
