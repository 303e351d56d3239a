package agent

import (
	"math"

	"github.com/deeppower/deeppower/internal/control"
	"github.com/deeppower/deeppower/internal/rl"
	"github.com/deeppower/deeppower/internal/sim"
)

// DQNPowerConfig parameterizes the value-based DeepPower variant: a DQN (or
// DDQN) agent choosing thread-controller parameters from a discrete
// gridSize×gridSize lattice over [0,1]². The paper formulates the problem
// with continuous actions and DDPG (§4.3); this variant is the natural
// ablation quantifying what discretization costs. The reward, warm-up,
// replay and controller seed are the agent loop's defaults (see Config).
type DQNPowerConfig struct {
	// Train enables exploration and learning.
	Train bool
	Seed  int64
	// double selects DDQN updates, and loop overrides the agent loop's
	// step interval, warm-up and replay sizes; only this package's tests
	// set them.
	double bool
	loop   Config
}

// The lattice and its ε-greedy exploration schedule.
const (
	// gridSize discretizes each parameter into 5 levels: 25 actions.
	gridSize = 5
	// epsStart decays by epsDecay per exploring step down to epsEnd.
	epsStart, epsEnd, epsDecay = 1.0, 0.05, 0.99
)

// DQNPower is the discrete-action DeepPower variant: the agent loop of core
// over the lattice codec.
type DQNPower struct {
	core
}

// NewDQNPower builds the policy.
func NewDQNPower(cfg DQNPowerConfig) (*DQNPower, error) {
	dqn, err := rl.NewDQN(rl.DQNConfig{
		StateDim:   StateDim,
		NumActions: gridSize * gridSize,
		Double:     cfg.double,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	name := "dqn-power"
	if cfg.double {
		name = "ddqn-power"
	}
	loop := cfg.loop
	loop.Train, loop.Seed = cfg.Train, cfg.Seed
	loop = loop.withDefaults()
	k := &lattice{DQN: dqn}
	replay := rl.NewReplay(loop.replayCap, sim.NewRNG(sim.SubSeed(sim.SubSeed(loop.Seed, "dqnpower"), "replay")))
	return &DQNPower{newCore(name, loop, k.seeded(loop.Seed), replay)}, nil
}

// lattice is the discrete action space: the action is one index into a
// gridSize×gridSize lattice over [0,1]² (stored, as rl.DQN reads it, as a one-element
// vector), explored ε-greedily on a decaying ε.
type lattice struct {
	*rl.DQN

	eps float64
	rng *sim.RNG
}

func (k *lattice) seeded(seed int64) codec {
	fresh := *k
	fresh.eps = epsStart
	fresh.rng = sim.NewRNG(sim.SubSeed(sim.SubSeed(seed, "dqnpower"), "explore"))
	return &fresh
}

// numActions is one Q-value per lattice point.
func (k *lattice) numActions() int { return gridSize * gridSize }

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
		k.eps = math.Max(k.eps*epsDecay, epsEnd)
	}
	return []float64{float64(idx)}
}

// params maps an action index onto the parameter lattice.
func (k *lattice) params(action []float64) control.Params {
	idx, g := int(action[0]), gridSize
	den := float64(g - 1)
	return control.Params{
		BaseFreq:    float64(idx/g) / den,
		ScalingCoef: float64(idx%g) / den,
	}
}

// Update reports rl.DQN's TD loss as the critic loss; there is no actor.
func (k *lattice) Update(batch []rl.Transition) (float64, float64) { return k.DQN.Update(batch), 0 }
