package agent

import (
	"fmt"
	"io"
	"math"

	"github.com/deeppower/deeppower/internal/control"
	"github.com/deeppower/deeppower/internal/rl"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// ActionDim is the paper actor's output width: (BaseFreq, ScalingCoef).
// With Config.Placement a third component — the placement score — widens
// the action space (see Config.Placement).
const ActionDim = 2

// placementActionDim is the widened action width when Placement is on.
const placementActionDim = 3

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
	// DDPG hyper-parameters; state/action dims are fixed by the paper.
	// (For the TD3 backend, the analogous fields are mapped across.)
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
	// BatchSize is the replay minibatch (default 64, §5.5).
	BatchSize int
	// UpdatesPerStep is how many gradient updates run per agent step
	// (default 1, as in Algorithm 2; quick-scale experiments raise it to
	// compensate for fewer steps).
	UpdatesPerStep int
	// ReplayCap bounds the experience pool (default 100000).
	ReplayCap int
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
	// InitialParams seeds the thread controller before the first action.
	InitialParams control.Params
	// RecordLog retains per-step actions and rewards (Fig. 8).
	RecordLog bool
	// Seed drives exploration and initialization.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.LongTime == 0 {
		c.LongTime = sim.Second
	}
	if c.NoiseMu == 0 && c.NoiseSigma == 0 {
		c.NoiseMu, c.NoiseSigma = 0.3, 1.0
	}
	if c.NoiseDecay == 0 {
		c.NoiseDecay = 0.999
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

// LogPoint is one agent step's record (for Fig. 8's parameter curves).
type LogPoint struct {
	At     sim.Time
	Params control.Params
	Reward Breakdown
	State  []float64
}

// DeepPower is the full framework of Fig. 3 wired as a server.Policy: the
// thread controller runs every tick; once per LongTime the DRL agent
// observes, rewards, learns, and emits new controller parameters.
type DeepPower struct {
	server.BasePolicy
	cfg Config

	tc       *control.ThreadController
	agent    Backend
	replay   *rl.Replay
	noise    rl.Noise
	observer *Observer
	reward   *Reward
	rng      *sim.RNG

	step       int
	nextAct    sim.Time
	lastState  []float64
	lastAction []float64

	// external marks this instance as externally driven: OnTick keeps the
	// thread controller running but never acts inline — the vector trainer
	// acts at lockstep boundaries instead (see vector.go).
	external bool
	// vecSteps counts lockstep boundaries the shared learner has seen; it
	// plays step's role in the vectorized warmup/learn gating.
	vecSteps int
	// pendingState/pendingRew carry the boundary observation between the
	// observe and act halves of a vector step.
	pendingState []float64
	pendingRew   Breakdown
	// noiseBuf is the reused exploration-noise row for vecActRow, sized
	// for the widest action space.
	noiseBuf [placementActionDim]float64

	// placeLevels is the server topology's placement ladder, captured at
	// Init when Placement is on (nil on homogeneous servers).
	placeLevels [][]int
	// classEnergyBuf is the reused per-class energy row for observeStep.
	classEnergyBuf []float64

	// batchBuf is the reused minibatch buffer for replay sampling
	// (rl.Replay.SampleInto), so the steady-state train loop allocates
	// nothing per update.
	batchBuf []rl.Transition

	// Log holds per-step records when RecordLog is set.
	Log []LogPoint
	// EpisodeReturn accumulates reward over the current episode.
	EpisodeReturn float64
	// Losses tracks the most recent update's losses.
	CriticLoss, ActorLoss float64
}

// New builds a DeepPower policy.
func New(cfg Config) (*DeepPower, error) {
	full := cfg.withDefaults()
	if full.Classes < 0 {
		return nil, fmt.Errorf("agent: negative class count %d", full.Classes)
	}
	if full.Placement && full.Classes == 0 {
		return nil, fmt.Errorf("agent: Placement requires Classes > 0")
	}
	var agent Backend
	switch full.Backend {
	case BackendDDPG:
		a, err := rl.NewDDPG(full.DDPG)
		if err != nil {
			return nil, err
		}
		agent = a
	case BackendTD3:
		a, err := rl.NewTD3(rl.TD3Config{
			StateDim:  full.DDPG.StateDim,
			ActionDim: full.DDPG.ActionDim,
			ActorLR:   full.DDPG.ActorLR,
			CriticLR:  full.DDPG.CriticLR,
			Gamma:     full.DDPG.Gamma,
			Tau:       full.DDPG.Tau,
			Seed:      full.DDPG.Seed,
		})
		if err != nil {
			return nil, err
		}
		agent = td3Backend{a}
	default:
		return nil, fmt.Errorf("agent: unknown backend %q", full.Backend)
	}
	replay := rl.NewReplay(full.ReplayCap, sim.NewRNG(full.Seed).Stream("deeppower").Stream("replay"))
	return newDeepPower(full, agent, replay), nil
}

// newDeepPower wires a policy around an existing learner and replay pool:
// New's own, or — for a vector shell — the owner's. Everything else (thread
// controller, noise, reward, warmup RNG) is per-instance, on sub-streams
// derived by name from full.Seed, so which streams a caller skips moves no
// draw of the others.
func newDeepPower(full Config, agent Backend, replay *rl.Replay) *DeepPower {
	rng := sim.NewRNG(full.Seed).Stream("deeppower")
	return &DeepPower{
		cfg:    full,
		tc:     control.NewThreadController(full.InitialParams),
		agent:  agent,
		replay: replay,
		noise: &rl.DecayedNoise{
			Inner: rl.NewGaussianNoise(full.NoiseMu, full.NoiseSigma, rng.Stream("noise")),
			Scale: 1, Decay: full.NoiseDecay, Floor: 0.05,
		},
		reward: NewReward(full.Reward),
		rng:    rng.Stream("warmup-actions"),
	}
}

// Name implements server.Policy.
func (dp *DeepPower) Name() string { return "deeppower" }

// Params returns the thread controller's current parameters.
func (dp *DeepPower) Params() control.Params { return dp.tc.Params() }

// Agent exposes the underlying learner (diagnostics, ablations).
func (dp *DeepPower) Agent() Backend { return dp.agent }

// StepCount reports completed agent steps across all episodes.
func (dp *DeepPower) StepCount() int { return dp.step }

// Return implements Trainable.
func (dp *DeepPower) Return() float64 { return dp.EpisodeReturn }

// Init implements server.Policy: per-episode reset. Learned networks, the
// replay pool, and exploration decay persist across episodes.
func (dp *DeepPower) Init(c server.Control) {
	dp.BasePolicy.Init(c)
	dp.tc.Init(c)
	if dp.cfg.Placement {
		if t := c.Topology(); t != nil {
			dp.placeLevels = t.PlacementLevels()
		}
	}
	if dp.observer == nil {
		dp.observer = NewObserverClasses(c.SLA(), dp.cfg.Classes)
	} else {
		// Keep learned normalization across episodes so training-time and
		// evaluation-time state representations agree.
		dp.observer.Reset()
	}
	dp.reward.Reset()
	dp.lastState = nil
	dp.lastAction = nil
	dp.EpisodeReturn = 0
	dp.nextAct = c.Now() // act immediately on the first tick
	dp.tc.SetParams(dp.cfg.InitialParams)
}

// OnTick implements server.Policy: Algorithm 1 every tick, Algorithm 2 every
// LongTime. In Flat mode the controller is bypassed and the agent's score
// applies uniformly (set once at the agent step).
func (dp *DeepPower) OnTick(now sim.Time) {
	if !dp.external && now >= dp.nextAct {
		dp.agentStep(now)
		dp.nextAct = now + dp.cfg.LongTime
	}
	if !dp.cfg.Flat {
		dp.tc.Apply(now, dp.Ctl)
	}
}

// OnDispatch implements server.Policy (delegated to the controller so new
// requests get scored immediately).
func (dp *DeepPower) OnDispatch(r *server.Request, core int) {
	if !dp.cfg.Flat {
		dp.tc.OnDispatch(r, core)
	}
}

// agentStep is one iteration of Algorithm 2's loop body: observe and
// reward, store the completed transition, learn, select, actuate. The
// vectorized trainer runs the same halves split across a lockstep boundary
// (vecObserve / vecActRow / vecLearn below).
func (dp *DeepPower) agentStep(now sim.Time) {
	state, rew := dp.observeStep()
	if dp.pushTransition(state, rew) &&
		dp.step >= dp.cfg.WarmupSteps && dp.replay.Len() >= dp.cfg.BatchSize {
		dp.learnStep()
	}
	dp.EpisodeReturn += rew.Total
	dp.commitAction(now, state, dp.selectAction(state), rew)
}

// observeStep computes the boundary state and reward from the control seam
// (Algorithm 2 lines 3–4).
func (dp *DeepPower) observeStep() ([]float64, Breakdown) {
	snap := dp.Ctl.Snapshot()
	state := dp.observer.Observe(snap)
	var rew Breakdown
	if dp.cfg.Classes > 0 && len(snap.Classes) > 0 {
		if cap(dp.classEnergyBuf) < len(snap.Classes) {
			dp.classEnergyBuf = make([]float64, len(snap.Classes))
		}
		buf := dp.classEnergyBuf[:len(snap.Classes)]
		for i, cs := range snap.Classes {
			buf[i] = cs.EnergyJ
		}
		rew = dp.reward.StepClasses(snap.Energy, buf, snap.Counters.Timeouts, snap.QueueLen, dp.cfg.LongTime)
	} else {
		rew = dp.reward.Step(snap.Energy, snap.Counters.Timeouts, snap.QueueLen, dp.cfg.LongTime)
	}
	return state, rew
}

// pushTransition stores the completed (s, a, r, s') tuple and reports
// whether it was stored. Transitions carrying non-finite values (possible
// under faulted telemetry) are dropped before they can poison the replay
// pool.
func (dp *DeepPower) pushTransition(state []float64, rew Breakdown) bool {
	if !dp.cfg.Train || dp.lastState == nil || !finiteVec(state) || !isFinite(rew.Total) {
		return false
	}
	dp.replay.Push(rl.Transition{
		State:     dp.lastState,
		Action:    dp.lastAction,
		Reward:    rew.Total,
		NextState: state,
	})
	return true
}

// learnStep runs the configured gradient updates from the replay pool.
func (dp *DeepPower) learnStep() {
	if dp.batchBuf == nil {
		dp.batchBuf = make([]rl.Transition, dp.cfg.BatchSize)
	}
	for u := 0; u < dp.cfg.UpdatesPerStep; u++ {
		dp.replay.SampleInto(dp.batchBuf)
		dp.CriticLoss, dp.ActorLoss = dp.agent.Update(dp.batchBuf)
	}
}

// actionDim is the actor's effective output width (2, or 3 with Placement).
func (dp *DeepPower) actionDim() int { return dp.cfg.DDPG.ActionDim }

// randomAction draws a uniform warmup action of the full width —
// randomSelect() of Algorithm 2 line 7. For the 2-dim paper agent the draw
// count and order match earlier versions exactly.
func (dp *DeepPower) randomAction() []float64 {
	a := make([]float64, dp.actionDim())
	for i := range a {
		a[i] = dp.rng.Float64()
	}
	return a
}

// selectAction picks the next action inline (Algorithm 2 line 5).
func (dp *DeepPower) selectAction(state []float64) []float64 {
	switch {
	case dp.cfg.Train && dp.step < dp.cfg.WarmupSteps:
		return dp.randomAction()
	case dp.cfg.Train:
		return dp.agent.ActNoisy(state, dp.noise)
	default:
		return dp.agent.Act(state)
	}
}

// commitAction actuates a selected action and advances the step bookkeeping
// — the shared tail of the inline agent step and the vectorized boundary
// act.
func (dp *DeepPower) commitAction(now sim.Time, state, action []float64, rew Breakdown) {
	params := control.Params{BaseFreq: action[0], ScalingCoef: action[1]}
	dp.tc.SetParams(params)
	if dp.cfg.Placement && len(action) > 2 && dp.placeLevels != nil {
		dp.Ctl.SetPlacement(control.PlacementFromScore(action[2], dp.placeLevels))
	}
	if dp.cfg.Flat {
		for i := 0; i < dp.Ctl.NumCores(); i++ {
			dp.Ctl.SetScore(i, action[0])
		}
	}

	if dp.cfg.RecordLog {
		dp.Log = append(dp.Log, LogPoint{At: now, Params: dp.tc.Params(), Reward: rew, State: state})
	}
	dp.lastState = state
	dp.lastAction = action
	dp.step++
}

// --- vectorized acting (VectorPolicy; driven by VectorTrainer) -------------

// vecPeriod implements VectorPolicy.
func (dp *DeepPower) vecPeriod() sim.Time { return dp.cfg.LongTime }

// vecRowWidth implements VectorPolicy: the actor emits one action per row.
func (dp *DeepPower) vecRowWidth() int { return dp.actionDim() }

// vecForward implements VectorPolicy: one batched actor call for all envs.
func (dp *DeepPower) vecForward(states []float64, n int) []float64 {
	return dp.agent.ActBatch(states, n)
}

// vecNewShell implements VectorPolicy: a per-env acting shell with its own
// controller, observer, reward, and RNG substreams (exploration stays
// env-decoupled, seeded via sim.SubSeed so any worker count draws the same
// noise), sharing the owner's learner networks and replay pool.
func (dp *DeepPower) vecNewShell(envIdx int) vecShell {
	cfg := dp.cfg
	cfg.Seed = sim.SubSeed(dp.cfg.Seed, fmt.Sprintf("vec-env/%d", envIdx))
	cfg.RecordLog = false
	shell := newDeepPower(cfg, dp.agent, dp.replay)
	shell.external = true
	return shell
}

// vecObserve runs the observation half of a lockstep step: state, reward,
// and the completed transition pushed into the (shared) replay pool. The
// trainer calls it serially in ascending env order — the deterministic
// interleave that makes the shared write cursor worker-count independent.
func (dp *DeepPower) vecObserve(sim.Time) {
	state, rew := dp.observeStep()
	dp.pushTransition(state, rew)
	dp.EpisodeReturn += rew.Total
	dp.pendingState = state
	dp.pendingRew = rew
}

// vecStateInto copies the pending boundary observation into one row of the
// trainer's gather buffer.
func (dp *DeepPower) vecStateInto(dst []float64) { copy(dst, dp.pendingState) }

// vecActRow consumes this env's row of the batched actor output: warmup
// envs draw random actions from their own RNG substream, training envs add
// their own exploration noise (same numerics and draw order as ActNoisy),
// and the action actuates immediately — matching the inline path, where the
// tick that triggered the agent step applies the controller right after.
func (dp *DeepPower) vecActRow(now sim.Time, row []float64) {
	state := dp.pendingState
	var action []float64
	switch {
	case dp.cfg.Train && dp.step < dp.cfg.WarmupSteps:
		action = dp.randomAction()
	case dp.cfg.Train:
		action = append(make([]float64, 0, len(row)), row...)
		noise := dp.noiseBuf[:len(row)]
		dp.noise.SampleInto(noise)
		for i := range action {
			action[i] += noise[i]
		}
		clipAction(action)
	default:
		action = append(make([]float64, 0, len(row)), row...)
	}
	dp.commitAction(now, state, action, dp.pendingRew)
	if !dp.cfg.Flat {
		dp.tc.Apply(now, dp.Ctl)
	}
}

// vecLearn implements VectorPolicy: one lockstep boundary's gradient
// updates from the shared pool — the same UpdatesPerStep cadence as one
// inline agent step, amortized across all E transitions the boundary
// contributed.
func (dp *DeepPower) vecLearn() {
	dp.vecSteps++
	if !dp.cfg.Train || dp.vecSteps <= dp.cfg.WarmupSteps || dp.replay.Len() < dp.cfg.BatchSize {
		return
	}
	dp.learnStep()
}

// Experience reports how many transitions have entered the replay pool —
// the experience-throughput counter the vector benchmarks rate.
func (dp *DeepPower) Experience() uint64 { return dp.replay.Pushed() }

// LastCriticLoss implements LossReporter.
func (dp *DeepPower) LastCriticLoss() float64 { return dp.CriticLoss }

// DivergenceCount implements DivergenceReporter: the backend's cumulative
// rolled-back updates (zero for backends without a divergence guard).
func (dp *DeepPower) DivergenceCount() uint64 {
	if div, ok := dp.agent.(interface{ Divergences() uint64 }); ok {
		return div.Divergences()
	}
	return 0
}

// clipAction clamps into the actor's [0,1] range — rl's clip semantics
// (NaN → 0), mirrored here for the vectorized noise path.
func clipAction(a []float64) {
	for i, v := range a {
		if v < 0 {
			a[i] = 0
		} else if v > 1 {
			a[i] = 1
		} else if math.IsNaN(v) {
			a[i] = 0
		}
	}
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func finiteVec(v []float64) bool {
	for _, x := range v {
		if !isFinite(x) {
			return false
		}
	}
	return true
}

// SavePolicy writes the trained actor.
func (dp *DeepPower) SavePolicy(w io.Writer) error { return dp.agent.SavePolicy(w) }

// LoadPolicy installs a trained actor and switches the policy to inference.
func (dp *DeepPower) LoadPolicy(r io.Reader) error {
	if err := dp.agent.LoadPolicy(r); err != nil {
		return fmt.Errorf("agent: %w", err)
	}
	dp.cfg.Train = false
	return nil
}

// SetTrain toggles training mode.
func (dp *DeepPower) SetTrain(train bool) { dp.cfg.Train = train }

// EnableLog turns on per-step action/reward logging (Fig. 8).
func (dp *DeepPower) EnableLog() { dp.cfg.RecordLog = true }
