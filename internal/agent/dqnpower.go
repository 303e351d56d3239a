package agent

import (
	"fmt"
	"math"

	"github.com/deeppower/deeppower/internal/control"
	"github.com/deeppower/deeppower/internal/rl"
	"github.com/deeppower/deeppower/internal/sim"
)

// DQNPowerConfig parameterizes the value-based DeepPower variant: a DQN (or
// DDQN) agent choosing thread-controller parameters from a discrete
// GridSize×GridSize lattice over [0,1]². The paper formulates the problem
// with continuous actions and DDPG (§4.3); this variant is the natural
// ablation quantifying what discretization costs.
type DQNPowerConfig struct {
	// LongTime is the agent step interval (default 1 s).
	LongTime sim.Time
	// GridSize discretizes each parameter into GridSize levels (default 5
	// → 25 actions).
	GridSize int
	// Reward weights (defaults as in RewardConfig).
	Reward RewardConfig
	// Double selects DDQN updates.
	Double bool
	// EpsStart, EpsEnd, EpsDecay control ε-greedy exploration
	// (defaults 1.0 → 0.05, decay 0.99 per step).
	EpsStart, EpsEnd, EpsDecay float64
	// WarmupSteps of pure random actions (default 20).
	WarmupSteps int
	// BatchSize (default 64), UpdatesPerStep (default 1),
	// ReplayCap (default 100000).
	BatchSize, UpdatesPerStep, ReplayCap int
	// Train enables exploration and learning.
	Train bool
	// InitialParams seeds the controller.
	InitialParams control.Params
	Seed          int64
}

// withDefaults fills what is specific to the lattice — its size and the
// ε-greedy schedule; the rest defaults with the Config it translates to.
func (c DQNPowerConfig) withDefaults() DQNPowerConfig {
	if c.GridSize == 0 {
		c.GridSize = 5
	}
	if c.EpsStart == 0 {
		c.EpsStart = 1.0
	}
	if c.EpsEnd == 0 {
		c.EpsEnd = 0.05
	}
	if c.EpsDecay == 0 {
		c.EpsDecay = 0.99
	}
	return c
}

// DQNPower is the discrete-action DeepPower variant: the agent loop of core
// over the lattice codec.
type DQNPower struct {
	core
}

// NewDQNPower builds the policy.
func NewDQNPower(cfg DQNPowerConfig) (*DQNPower, error) {
	full := cfg.withDefaults()
	if full.GridSize < 2 {
		return nil, fmt.Errorf("agent: grid size %d too small", full.GridSize)
	}
	dqn, err := rl.NewDQN(rl.DQNConfig{
		StateDim:   StateDim,
		NumActions: full.GridSize * full.GridSize,
		Double:     full.Double,
		Seed:       full.Seed,
	})
	if err != nil {
		return nil, err
	}
	name := "dqn-power"
	if full.Double {
		name = "ddqn-power"
	}
	loop := Config{
		LongTime:       full.LongTime,
		Reward:         full.Reward,
		WarmupSteps:    full.WarmupSteps,
		BatchSize:      full.BatchSize,
		UpdatesPerStep: full.UpdatesPerStep,
		ReplayCap:      full.ReplayCap,
		Train:          full.Train,
		InitialParams:  full.InitialParams,
		Seed:           full.Seed,
	}.withDefaults()
	k := &lattice{DQN: dqn, cfg: full}
	replay := rl.NewReplay(loop.ReplayCap, sim.NewRNG(loop.Seed).Stream("dqnpower").Stream("replay"))
	return &DQNPower{newCore(name, loop, k.seeded(loop.Seed), replay)}, nil
}

// lattice is the discrete action space: the action is one index into a
// grid×grid lattice over [0,1]² (stored, as rl.DQN reads it, as a one-element
// vector), explored ε-greedily on a decaying ε.
type lattice struct {
	*rl.DQN
	cfg DQNPowerConfig // lattice size and ε schedule

	eps float64
	rng *sim.RNG
}

func (k *lattice) seeded(seed int64) codec {
	fresh := *k
	fresh.eps = k.cfg.EpsStart
	fresh.rng = sim.NewRNG(seed).Stream("dqnpower").Stream("explore")
	return &fresh
}

// numActions is one Q-value per lattice point.
func (k *lattice) numActions() int { return k.cfg.GridSize * k.cfg.GridSize }

// act is ε-greedy over the Q-values. Inline, the ε draws come from the
// learner's own RNG (rl.DQN.ActEpsilonGreedy); over a batched row they come
// from the codec's stream, so vectorized environments stay draw-order
// decoupled whatever the worker count.
func (k *lattice) act(mode actMode, state, row []float64) []float64 {
	var idx int
	switch {
	case mode == actWarmup:
		idx = k.rng.Intn(k.numActions())
	case mode == actExplore && row == nil:
		idx = k.ActEpsilonGreedy(state, k.eps)
	case mode == actExplore && k.rng.Float64() < k.eps:
		idx = k.rng.Intn(k.numActions())
	case row == nil:
		idx = k.Act(state)
	default:
		idx = rl.Argmax(row)
	}
	if mode == actExplore {
		k.eps = math.Max(k.eps*k.cfg.EpsDecay, k.cfg.EpsEnd)
	}
	return []float64{float64(idx)}
}

// params maps an action index onto the parameter lattice.
func (k *lattice) params(action []float64) control.Params {
	idx, g := int(action[0]), k.cfg.GridSize
	den := float64(g - 1)
	return control.Params{
		BaseFreq:    float64(idx/g) / den,
		ScalingCoef: float64(idx%g) / den,
	}
}

// Update reports rl.DQN's TD loss as the critic loss; there is no actor.
func (k *lattice) Update(batch []rl.Transition) (float64, float64) { return k.DQN.Update(batch), 0 }
