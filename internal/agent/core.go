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

// actMode is how the next action is chosen (Algorithm 2 lines 5–7).
type actMode int

const (
	actGreedy  actMode = iota // inference: the deterministic policy
	actWarmup                 // training, first WarmupSteps: randomSelect()
	actExplore                // training: the policy plus exploration
)

// codec is the one decision in which the continuous agent (DeepPower over an
// rl.ActorCritic) and the value-based one (DQNPower over rl.DQN) differ: what an
// action is, how to explore in that space, and how it maps onto
// control.Params. Everything else about an agent is the core below. The core
// consults its codec once per LongTime, never per tick.
type codec interface {
	// SavePolicy, LoadPolicy, ActBatch, Divergences and (on an
	// rl.ActorCritic) Update are the learner's own methods. ActBatch
	// evaluates the policy network for n row-major states: n equal-width
	// rows aliasing network buffers. Divergences counts the updates the
	// learner's divergence guard rolled back.
	SavePolicy(w io.Writer) error
	LoadPolicy(r io.Reader) error
	ActBatch(states []float64, n int) []float64
	Divergences() uint64
	Update(batch []rl.Transition) (criticLoss, actorLoss float64)
	// act selects the next action. row is this environment's row of a
	// batched ActBatch, or nil on the inline path, where the codec evaluates
	// the network on state itself. The result is freshly allocated: the core
	// keeps it as the stored transition's action.
	act(mode actMode, state, row []float64) []float64
	// params maps an action onto the thread controller's parameters.
	params(action []float64) control.Params
	// seeded returns a codec on the same learner whose exploration state
	// (noise process, random-action stream, ε schedule) starts fresh on
	// sub-streams derived by name from seed, so which streams a caller
	// skips moves no draw of the others.
	seeded(seed int64) codec
}

// LogPoint is one agent step's record (for Fig. 8's parameter curves).
type LogPoint struct {
	At     sim.Time
	Params control.Params
	Reward Breakdown
	State  []float64
}

// core is the framework of Fig. 3 wired as a server.Policy: the thread
// controller runs every tick; once per LongTime the DRL agent observes,
// rewards, learns, and emits new controller parameters. DeepPower and
// DQNPower embed it and differ only in their codec.
type core struct {
	server.BasePolicy
	name string
	// cfg is the loop's configuration: the core reads the loop fields both
	// variants share (NewDQNPower fills them); the rest is the continuous
	// codec's.
	cfg   Config
	codec codec

	tc       *control.ThreadController
	replay   *rl.Replay
	observer *Observer
	reward   *Reward

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
	// Losses tracks the most recent update's losses (a value-based learner
	// has no actor: its ActorLoss stays zero).
	CriticLoss, ActorLoss float64
}

// newCore wires a policy around a codec and a replay pool: a constructor's
// own, or — for a vector shell — the owner's. The thread controller,
// observer and reward tracker are per-instance.
func newCore(name string, cfg Config, k codec, replay *rl.Replay) core {
	return core{
		name:   name,
		cfg:    cfg,
		codec:  k,
		tc:     control.NewThreadController(cfg.initialParams),
		replay: replay,
		reward: NewReward(cfg.Reward),
	}
}

// Name implements server.Policy.
func (c *core) Name() string { return c.name }

// Params returns the thread controller's current parameters.
func (c *core) Params() control.Params { return c.tc.Params() }

// Return implements Trainable.
func (c *core) Return() float64 { return c.EpisodeReturn }

// SetTrain toggles training mode: exploration and network updates. Off =
// pure inference with the current policy network.
func (c *core) SetTrain(train bool) { c.cfg.Train = train }

// Init implements server.Policy: per-episode reset. Learned networks, the
// replay pool, and exploration decay persist across episodes.
func (c *core) Init(ctl server.Control) {
	c.BasePolicy.Init(ctl)
	c.tc.Init(ctl)
	if c.cfg.Placement {
		if t := ctl.Topology(); t != nil {
			c.placeLevels = t.PlacementLevels()
		}
	}
	if c.observer == nil {
		c.observer = NewObserverClasses(ctl.SLA(), c.cfg.Classes)
	} else {
		// Keep learned normalization across episodes so training-time and
		// evaluation-time state representations agree.
		c.observer.Reset()
	}
	c.reward.Reset()
	c.lastState = nil
	c.lastAction = nil
	c.EpisodeReturn = 0
	c.nextAct = ctl.Now() // act immediately on the first tick
	c.tc.SetParams(c.cfg.initialParams)
}

// OnTick implements server.Policy: Algorithm 1 every tick, Algorithm 2 every
// LongTime. In Flat mode the controller is bypassed and the agent's score
// applies uniformly (set once at the agent step).
func (c *core) OnTick(now sim.Time) {
	if !c.external && now >= c.nextAct {
		c.agentStep(now)
		c.nextAct = now + c.cfg.LongTime
	}
	if !c.cfg.Flat {
		c.tc.Apply(now, c.Ctl)
	}
}

// OnDispatch implements server.Policy (delegated to the controller so new
// requests get scored immediately).
func (c *core) OnDispatch(r *server.Request, worker int) {
	if !c.cfg.Flat {
		c.tc.OnDispatch(r, worker)
	}
}

// agentStep is one iteration of Algorithm 2's loop body: observe and
// reward, store the completed transition, learn, select, actuate. The
// vectorized trainer runs the same halves split across a lockstep boundary
// (vecObserve / vecActRow / vecLearn below).
func (c *core) agentStep(now sim.Time) {
	state, rew := c.observeStep()
	if c.pushTransition(state, rew) &&
		c.step >= c.cfg.WarmupSteps && c.replay.Len() >= c.cfg.batchSize {
		c.learnStep()
	}
	c.EpisodeReturn += rew.Total
	c.commitAction(now, state, c.selectAction(state, nil), rew)
}

// observeStep computes the boundary state and reward from the control seam
// (Algorithm 2 lines 3–4).
func (c *core) observeStep() ([]float64, Breakdown) {
	snap := c.Ctl.Snapshot()
	state := c.observer.Observe(snap)
	var rew Breakdown
	if c.cfg.Classes > 0 && len(snap.Classes) > 0 {
		if cap(c.classEnergyBuf) < len(snap.Classes) {
			c.classEnergyBuf = make([]float64, len(snap.Classes))
		}
		buf := c.classEnergyBuf[:len(snap.Classes)]
		for i, cs := range snap.Classes {
			buf[i] = cs.EnergyJ
		}
		rew = c.reward.StepClasses(snap.Energy, buf, snap.Counters.Timeouts, snap.QueueLen, c.cfg.LongTime)
	} else {
		rew = c.reward.Step(snap.Energy, snap.Counters.Timeouts, snap.QueueLen, c.cfg.LongTime)
	}
	return state, rew
}

// pushTransition stores the completed (s, a, r, s') tuple and reports
// whether it was stored. Transitions carrying non-finite values (possible
// under faulted telemetry) are dropped before they can poison the replay
// pool.
func (c *core) pushTransition(state []float64, rew Breakdown) bool {
	if !c.cfg.Train || c.lastState == nil || !finiteVec(state) || !isFinite(rew.Total) {
		return false
	}
	c.replay.Push(rl.Transition{
		State:     c.lastState,
		Action:    c.lastAction,
		Reward:    rew.Total,
		NextState: state,
	})
	return true
}

// learnStep runs the configured gradient updates from the replay pool.
func (c *core) learnStep() {
	if c.batchBuf == nil {
		c.batchBuf = make([]rl.Transition, c.cfg.batchSize)
	}
	for u := 0; u < c.cfg.UpdatesPerStep; u++ {
		c.replay.SampleInto(c.batchBuf)
		c.CriticLoss, c.ActorLoss = c.codec.Update(c.batchBuf)
	}
}

// selectAction picks the next action (Algorithm 2 lines 5–7), from this
// environment's row of a batched forward pass or, with a nil row, inline.
func (c *core) selectAction(state, row []float64) []float64 {
	mode := actGreedy
	switch {
	case c.cfg.Train && c.step < c.cfg.WarmupSteps:
		mode = actWarmup
	case c.cfg.Train:
		mode = actExplore
	}
	return c.codec.act(mode, state, row)
}

// commitAction actuates a selected action and advances the step bookkeeping
// — the shared tail of the inline agent step and the vectorized boundary
// act. A third action component, where the codec emits one, is the
// placement score.
func (c *core) commitAction(now sim.Time, state, action []float64, rew Breakdown) {
	params := c.codec.params(action)
	c.tc.SetParams(params)
	if c.cfg.Placement && len(action) > 2 && c.placeLevels != nil {
		c.Ctl.SetPlacement(control.PlacementFromScore(action[2], c.placeLevels))
	}
	if c.cfg.Flat {
		for i := 0; i < c.Ctl.NumCores(); i++ {
			c.Ctl.SetScore(i, params.BaseFreq)
		}
	}

	if c.cfg.RecordLog {
		c.Log = append(c.Log, LogPoint{At: now, Params: c.tc.Params(), Reward: rew, State: state})
	}
	c.lastState = state
	c.lastAction = action
	c.step++
}

// --- vectorized acting (VectorPolicy; driven by VectorTrainer) -------------

// agentCore implements VectorPolicy.
func (c *core) agentCore() *core { return c }

// vecPeriod is the control period between lockstep boundaries.
func (c *core) vecPeriod() sim.Time { return c.cfg.LongTime }

// vecStateDim is the width of one env's observation vector.
func (c *core) vecStateDim() int { return StateDim + 2*c.cfg.Classes }

// vecForward evaluates the policy network for n gathered states in one
// batched call; rows alias network-internal buffers and must be consumed
// before the next forward or update.
func (c *core) vecForward(states []float64, n int) []float64 {
	return c.codec.ActBatch(states, n)
}

// vecNewShell builds one environment's acting surface: a full policy
// instance with its own controller, observer, reward tracker, and
// exploration substreams (env-decoupled, seeded via sim.SubSeed so any worker
// count draws the same numbers), sharing the owner's learner networks and
// replay pool. Its inline act path is disabled; the trainer drives the
// observe/act halves at each boundary.
func (c *core) vecNewShell(envIdx int) *core {
	cfg := c.cfg
	cfg.Seed = sim.SubSeed(c.cfg.Seed, fmt.Sprintf("vec-env/%d", envIdx))
	cfg.RecordLog = false
	shell := newCore(c.name, cfg, c.codec.seeded(cfg.Seed), c.replay)
	shell.external = true
	return &shell
}

// vecObserve runs the observation half of a lockstep step: state, reward,
// and the completed transition pushed into the (shared) replay pool. The
// trainer calls it serially in ascending env order — the deterministic
// interleave that makes the shared write cursor worker-count independent.
func (c *core) vecObserve() {
	state, rew := c.observeStep()
	c.pushTransition(state, rew)
	c.EpisodeReturn += rew.Total
	c.pendingState = state
	c.pendingRew = rew
}

// vecStateInto copies the pending boundary observation into one row of the
// trainer's gather buffer.
func (c *core) vecStateInto(dst []float64) { copy(dst, c.pendingState) }

// vecActRow consumes this env's row of the batched forward output; the
// action actuates immediately — matching the inline path, where the tick
// that triggered the agent step applies the controller right after.
func (c *core) vecActRow(now sim.Time, row []float64) {
	c.commitAction(now, c.pendingState, c.selectAction(c.pendingState, row), c.pendingRew)
	if !c.cfg.Flat {
		c.tc.Apply(now, c.Ctl)
	}
}

// vecLearn runs one lockstep boundary's gradient updates from the shared
// pool — the same UpdatesPerStep cadence as one inline agent step, amortized
// across all E transitions the boundary contributed. It touches only learner
// state (networks, replay sampler, minibatch buffer, loss fields) — never a
// shell or an environment — which is what lets the trainer run it beside the
// environments' next segment.
func (c *core) vecLearn() {
	c.vecSteps++
	if !c.cfg.Train || c.vecSteps <= c.cfg.WarmupSteps || c.replay.Len() < c.cfg.batchSize {
		return
	}
	c.learnStep()
}

// Experience reports how many transitions have entered the replay pool —
// the experience-throughput counter the vector benchmarks rate.
func (c *core) Experience() uint64 { return c.replay.Pushed() }

// LastCriticLoss implements LossReporter.
func (c *core) LastCriticLoss() float64 { return c.CriticLoss }

// DivergenceCount implements DivergenceReporter: the learner's cumulative
// rolled-back updates.
func (c *core) DivergenceCount() uint64 { return c.codec.Divergences() }

// SavePolicy writes the trained policy network as a sealed ckpt.KindPolicy
// container — one export entry point for every agent, so the checkpoint
// registry and rollback hook work with either variant.
func (c *core) SavePolicy(w io.Writer) error { return c.codec.SavePolicy(w) }

// LoadPolicy installs a trained policy network and switches to inference.
func (c *core) LoadPolicy(r io.Reader) error {
	if err := c.codec.LoadPolicy(r); err != nil {
		return fmt.Errorf("agent: %w", err)
	}
	c.cfg.Train = false
	return nil
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
