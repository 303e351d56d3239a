package agent

import (
	"fmt"
	"io"

	"github.com/deeppower/deeppower/internal/control"
	"github.com/deeppower/deeppower/internal/rl"
	"github.com/deeppower/deeppower/internal/server"
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

func (c DQNPowerConfig) withDefaults() DQNPowerConfig {
	if c.LongTime == 0 {
		c.LongTime = sim.Second
	}
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
	if c.WarmupSteps == 0 {
		c.WarmupSteps = 20
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.UpdatesPerStep == 0 {
		c.UpdatesPerStep = 1
	}
	if c.ReplayCap == 0 {
		c.ReplayCap = 100000
	}
	if c.InitialParams == (control.Params{}) {
		c.InitialParams = control.Params{BaseFreq: 0.6, ScalingCoef: 0.6}
	}
	return c
}

// DQNPower is the discrete-action DeepPower variant.
type DQNPower struct {
	server.BasePolicy
	cfg DQNPowerConfig

	tc       *control.ThreadController
	agent    *rl.DQN
	replay   *rl.Replay
	observer *Observer
	reward   *Reward
	rng      *sim.RNG

	eps        float64
	step       int
	nextAct    sim.Time
	lastState  []float64
	lastAction int

	// external marks this instance as externally driven: OnTick keeps the
	// thread controller running but never acts inline — the vector trainer
	// acts at lockstep boundaries instead (see vector.go).
	external bool
	// vecSteps counts lockstep boundaries for the vectorized learn gating.
	vecSteps int
	// pendingState/pendingRew carry the boundary observation between the
	// observe and act halves of a vector step.
	pendingState []float64
	pendingRew   Breakdown

	// batchBuf is the reused minibatch buffer for replay sampling.
	batchBuf []rl.Transition

	// EpisodeReturn accumulates reward over the current episode.
	EpisodeReturn float64
	// CriticLoss tracks the most recent update's TD loss.
	CriticLoss float64
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
	replay := rl.NewReplay(full.ReplayCap, sim.NewRNG(full.Seed).Stream("dqnpower").Stream("replay"))
	return newDQNPower(full, dqn, replay), nil
}

// newDQNPower wires a policy around an existing learner and replay pool (see
// newDeepPower).
func newDQNPower(full DQNPowerConfig, dqn *rl.DQN, replay *rl.Replay) *DQNPower {
	return &DQNPower{
		cfg:    full,
		tc:     control.NewThreadController(full.InitialParams),
		agent:  dqn,
		replay: replay,
		reward: NewReward(full.Reward),
		rng:    sim.NewRNG(full.Seed).Stream("dqnpower").Stream("explore"),
		eps:    full.EpsStart,
	}
}

// SavePolicy writes the trained Q-network — the same policy-export entry
// point the DDPG-backed DeepPower provides, so the checkpoint registry and
// rollback hook work with either variant.
func (dq *DQNPower) SavePolicy(w io.Writer) error { return dq.agent.SavePolicy(w) }

// LoadPolicy installs a trained Q-network and switches to inference.
func (dq *DQNPower) LoadPolicy(r io.Reader) error {
	if err := dq.agent.LoadPolicy(r); err != nil {
		return fmt.Errorf("agent: %w", err)
	}
	dq.cfg.Train = false
	return nil
}

// Agent exposes the underlying DQN learner.
func (dq *DQNPower) Agent() *rl.DQN { return dq.agent }

// Name implements server.Policy.
func (dq *DQNPower) Name() string {
	if dq.cfg.Double {
		return "ddqn-power"
	}
	return "dqn-power"
}

// Params returns the controller's current parameters.
func (dq *DQNPower) Params() control.Params { return dq.tc.Params() }

// paramsOf maps an action index onto the parameter lattice.
func (dq *DQNPower) paramsOf(action int) control.Params {
	g := dq.cfg.GridSize
	row, col := action/g, action%g
	den := float64(g - 1)
	return control.Params{
		BaseFreq:    float64(row) / den,
		ScalingCoef: float64(col) / den,
	}
}

// Init implements server.Policy.
func (dq *DQNPower) Init(c server.Control) {
	dq.BasePolicy.Init(c)
	dq.tc.Init(c)
	if dq.observer == nil {
		dq.observer = NewObserver(c.SLA())
	} else {
		dq.observer.Reset()
	}
	dq.reward.Reset()
	dq.lastState = nil
	dq.EpisodeReturn = 0
	dq.nextAct = c.Now()
	dq.tc.SetParams(dq.cfg.InitialParams)
}

// OnTick implements server.Policy.
func (dq *DQNPower) OnTick(now sim.Time) {
	if !dq.external && now >= dq.nextAct {
		dq.agentStep()
		dq.nextAct = now + dq.cfg.LongTime
	}
	dq.tc.Apply(now, dq.Ctl)
}

// OnDispatch implements server.Policy.
func (dq *DQNPower) OnDispatch(r *server.Request, core int) {
	dq.tc.OnDispatch(r, core)
}

// agentStep is the value-based analog of DeepPower.agentStep; the same
// halves run split across a lockstep boundary in vectorized training.
func (dq *DQNPower) agentStep() {
	state, rew := dq.observeStep()
	if dq.pushTransition(state, rew) &&
		dq.step >= dq.cfg.WarmupSteps && dq.replay.Len() >= dq.cfg.BatchSize {
		dq.learnStep()
	}
	dq.EpisodeReturn += rew.Total
	dq.commitAction(state, dq.selectAction(state))
}

// observeStep computes the boundary state and reward.
func (dq *DQNPower) observeStep() ([]float64, Breakdown) {
	snap := dq.Ctl.Snapshot()
	state := dq.observer.Observe(snap)
	rew := dq.reward.Step(snap.Energy, snap.Counters.Timeouts, snap.QueueLen, dq.cfg.LongTime)
	return state, rew
}

// pushTransition stores the completed transition and reports whether it was
// stored.
func (dq *DQNPower) pushTransition(state []float64, rew Breakdown) bool {
	if !dq.cfg.Train || dq.lastState == nil {
		return false
	}
	dq.replay.Push(rl.Transition{
		State:     dq.lastState,
		Action:    []float64{float64(dq.lastAction)},
		Reward:    rew.Total,
		NextState: state,
	})
	return true
}

// learnStep runs the configured gradient updates from the replay pool.
func (dq *DQNPower) learnStep() {
	if dq.batchBuf == nil {
		dq.batchBuf = make([]rl.Transition, dq.cfg.BatchSize)
	}
	for u := 0; u < dq.cfg.UpdatesPerStep; u++ {
		dq.replay.SampleInto(dq.batchBuf)
		dq.CriticLoss = dq.agent.Update(dq.batchBuf)
	}
}

// selectAction picks the next discrete action inline.
func (dq *DQNPower) selectAction(state []float64) int {
	switch {
	case dq.cfg.Train && dq.step < dq.cfg.WarmupSteps:
		return dq.rng.Intn(dq.cfg.GridSize * dq.cfg.GridSize)
	case dq.cfg.Train:
		action := dq.agent.ActEpsilonGreedy(state, dq.eps)
		dq.decayEps()
		return action
	default:
		return dq.agent.Act(state)
	}
}

func (dq *DQNPower) decayEps() {
	dq.eps *= dq.cfg.EpsDecay
	if dq.eps < dq.cfg.EpsEnd {
		dq.eps = dq.cfg.EpsEnd
	}
}

// commitAction actuates a selected action and advances step bookkeeping.
func (dq *DQNPower) commitAction(state []float64, action int) {
	dq.tc.SetParams(dq.paramsOf(action))
	dq.lastState = state
	dq.lastAction = action
	dq.step++
}

// --- vectorized acting (VectorPolicy; driven by VectorTrainer) -------------

// vecPeriod implements VectorPolicy.
func (dq *DQNPower) vecPeriod() sim.Time { return dq.cfg.LongTime }

// vecRowWidth implements VectorPolicy: one Q-value row per env.
func (dq *DQNPower) vecRowWidth() int { return dq.cfg.GridSize * dq.cfg.GridSize }

// vecForward implements VectorPolicy: one batched Q evaluation for all envs.
func (dq *DQNPower) vecForward(states []float64, n int) []float64 {
	return dq.agent.ActBatch(states, n)
}

// vecNewShell implements VectorPolicy: a per-env acting shell with its own
// controller, observer, reward, ε schedule, and RNG substream, sharing the
// owner's Q-network and replay pool.
func (dq *DQNPower) vecNewShell(envIdx int) vecShell {
	cfg := dq.cfg
	cfg.Seed = sim.SubSeed(dq.cfg.Seed, fmt.Sprintf("vec-env/%d", envIdx))
	shell := newDQNPower(cfg, dq.agent, dq.replay)
	shell.external = true
	return shell
}

// vecObserve runs the observation half of a lockstep step (serial, env
// ascending — see DeepPower.vecObserve).
func (dq *DQNPower) vecObserve(sim.Time) {
	state, rew := dq.observeStep()
	dq.pushTransition(state, rew)
	dq.EpisodeReturn += rew.Total
	dq.pendingState = state
	dq.pendingRew = rew
}

// vecStateInto copies the pending boundary observation into one gather row.
func (dq *DQNPower) vecStateInto(dst []float64) { copy(dst, dq.pendingState) }

// vecActRow consumes this env's batched Q-value row. Unlike the inline
// path, whose ε draws come from the learner's own RNG, vectorized ε-greedy
// draws from the shell's substream so environments stay draw-order
// decoupled whatever the worker count.
func (dq *DQNPower) vecActRow(now sim.Time, row []float64) {
	state := dq.pendingState
	var action int
	switch {
	case dq.cfg.Train && dq.step < dq.cfg.WarmupSteps:
		action = dq.rng.Intn(dq.cfg.GridSize * dq.cfg.GridSize)
	case dq.cfg.Train:
		if dq.rng.Float64() < dq.eps {
			action = dq.rng.Intn(dq.cfg.GridSize * dq.cfg.GridSize)
		} else {
			action = rl.Argmax(row)
		}
		dq.decayEps()
	default:
		action = rl.Argmax(row)
	}
	dq.commitAction(state, action)
	dq.tc.Apply(now, dq.Ctl)
}

// vecLearn implements VectorPolicy (see DeepPower.vecLearn).
func (dq *DQNPower) vecLearn() {
	dq.vecSteps++
	if !dq.cfg.Train || dq.vecSteps <= dq.cfg.WarmupSteps || dq.replay.Len() < dq.cfg.BatchSize {
		return
	}
	dq.learnStep()
}

// Experience reports how many transitions have entered the replay pool.
func (dq *DQNPower) Experience() uint64 { return dq.replay.Pushed() }

// LastCriticLoss implements LossReporter.
func (dq *DQNPower) LastCriticLoss() float64 { return dq.CriticLoss }

// DivergenceCount implements DivergenceReporter: the DQN learner has no
// divergence-rollback guard, so the count is always zero.
func (dq *DQNPower) DivergenceCount() uint64 { return 0 }

// SetTrain toggles training mode.
func (dq *DQNPower) SetTrain(train bool) { dq.cfg.Train = train }

// Return implements Trainable.
func (dq *DQNPower) Return() float64 { return dq.EpisodeReturn }
