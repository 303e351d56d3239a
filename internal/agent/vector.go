package agent

import (
	"context"
	"fmt"

	"github.com/deeppower/deeppower/internal/pool"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

// VectorPolicy is a trainable policy that can drive E environments in
// lockstep through one shared learner: DeepPower and DQNPower both qualify,
// and external packages obtain one by constructing either.
type VectorPolicy interface {
	Trainable
	// Experience counts transitions pushed into the shared replay pool.
	Experience() uint64
	// agentCore is the agent loop both types embed; its vec* methods are the
	// vectorized act protocol the trainer drives.
	agentCore() *core
}

// TrainVectorConfig drives VectorTrainer.
type TrainVectorConfig struct {
	// Envs is the number of environments run in lockstep (default 8).
	Envs int
	// Workers bounds the goroutines running a parallel phase — the
	// environments advancing to the next boundary and the learner's updates
	// beside them (0 = all cores). Results are byte-identical at any value.
	Workers int
	// Episodes is how many trace periods to train for (default 8).
	Episodes int
	// EpisodeLen is the virtual duration of one episode (default: one trace
	// period).
	EpisodeLen sim.Time
	// Server configures each environment; env i of episode ep gets seed
	// SubSeed(Server.Seed, "vec-env/i") + ep·7919, so environments see
	// decoupled arrival processes that still vary per episode. As in
	// TrainConfig, DiscardLatencies is overridden to false for the exact
	// episode p99.
	Server server.Config
	// Trace is the request-rate trace every environment replays.
	Trace *workload.Trace
	// OnEpisode, when non-nil, runs after every episode with its aggregated
	// stats. A returned error aborts training with the stats so far.
	OnEpisode func(ep int, st EpisodeStats) error
}

// VectorTrainer trains one shared policy on E environments advanced in
// lockstep. Each control period is one parallel phase and one serial phase:
//
//   - parallel (one Run of the pool.Gang that Train keeps for its whole
//     call): unit 0 runs the gradient updates the previous boundary owes
//     (vecLearn) while units 1..E advance one environment each to the next
//     boundary (Server.RunSegment). The first phase of an episode also arms
//     each environment inside its unit (server.New + Begin), the last one
//     settles it (End). The two kinds of unit touch disjoint state: an
//     environment unit only its own engine, server, result slot and shell
//     (Init at arm, the thread controller per tick — shells never act
//     inline); the learn unit only the owner's networks, replay sampler,
//     minibatch buffer and loss fields. So any worker count computes the
//     same thing, and at one worker the units run in index order: update,
//     then advance, strictly serial. The gang's workers persist across
//     phases and a worker runs its own units first (unit i's is worker
//     i mod W), so an environment's engine, server and shell mostly stay
//     on one goroutine and in its CPU's cache. Go does not pin goroutines
//     to CPUs, so this is locality only; nothing computed depends on it.
//   - serial, ascending env index, after the phase's Run has returned:
//     observe each env and push its transition into the shared replay (one
//     fixed interleave order), gather all E observations, evaluate the
//     policy network once for the whole batch (vecForward), act each env
//     from its row. This is the only phase that reads the networks the
//     learn unit writes or writes the replay it samples.
//
// The learn unit is joined — Gang.Run does not return while a unit runs —
// before every access to shared state: the replay push, the batched forward,
// the end-of-episode report and OnEpisode hook, and every error or
// cancellation return. Training is therefore race-clean and byte-identical
// across worker counts, while per-step cost amortizes one batched forward and
// one update schedule over E transitions.
type VectorTrainer struct {
	cfg    TrainVectorConfig
	owner  *core
	shells []*core
	seeds  []int64 // per-env server seed base, SubSeed(Server.Seed, "vec-env/i")
	engs   []*sim.Engine
	srvs   []*server.Server
	// results holds each environment's settled episode, written by its unit.
	results []*server.Result
	// units is the learn unit followed by one unit per environment: the
	// learn is the longest unit, so it starts first on its worker.
	units []pool.Unit
	// states is the preallocated [Envs×vecStateDim] observation gather buffer.
	states []float64
	// phase describes the parallel phase in flight; written between
	// Gang.Run calls, read by the units.
	phase vecPhase
}

// vecPhase is one parallel phase: every environment runs to until, with the
// episode's arm before and settle after folded into the same units.
type vecPhase struct {
	until   sim.Time
	episode int
	arm     bool // build and Begin this episode's servers first
	learn   bool // the previous boundary owes its gradient updates
	settle  bool // End every server after the segment
}

// NewVectorTrainer builds the trainer and its per-env shells. The policy dp
// becomes the shared learner; it must not be driven by another server while
// vector training runs.
func NewVectorTrainer(dp VectorPolicy, cfg TrainVectorConfig) (*VectorTrainer, error) {
	owner := dp.agentCore()
	if cfg.Trace == nil {
		return nil, fmt.Errorf("agent: TrainVectorConfig.Trace is required")
	}
	if cfg.Envs == 0 {
		cfg.Envs = 8
	}
	if cfg.Envs < 0 {
		return nil, fmt.Errorf("agent: negative env count %d", cfg.Envs)
	}
	if cfg.Episodes == 0 {
		cfg.Episodes = 8
	}
	if cfg.Episodes < 0 {
		return nil, fmt.Errorf("agent: negative episode count %d", cfg.Episodes)
	}
	if cfg.EpisodeLen == 0 {
		cfg.EpisodeLen = cfg.Trace.Period
	}
	if owner.vecPeriod() <= 0 {
		return nil, fmt.Errorf("agent: non-positive control period %v", owner.vecPeriod())
	}
	vt := &VectorTrainer{
		cfg:     cfg,
		owner:   owner,
		shells:  make([]*core, cfg.Envs),
		seeds:   make([]int64, cfg.Envs),
		engs:    make([]*sim.Engine, cfg.Envs),
		srvs:    make([]*server.Server, cfg.Envs),
		results: make([]*server.Result, cfg.Envs),
		units:   make([]pool.Unit, 1+cfg.Envs),
		states:  make([]float64, cfg.Envs*owner.vecStateDim()),
	}
	vt.units[0] = func(context.Context) error {
		if vt.phase.learn {
			vt.owner.vecLearn()
		}
		return nil
	}
	for i := 0; i < cfg.Envs; i++ {
		vt.shells[i] = owner.vecNewShell(i)
		vt.seeds[i] = sim.SubSeed(cfg.Server.Seed, fmt.Sprintf("vec-env/%d", i))
		vt.engs[i] = sim.NewEngine()
		i := i
		vt.units[1+i] = func(context.Context) error { return vt.runEnv(i) }
	}
	return vt, nil
}

// runEnv is environment i's share of the current parallel phase. It touches
// only per-environment state.
func (vt *VectorTrainer) runEnv(i int) error {
	ph := vt.phase
	if ph.arm {
		// The engine is Reset to recycle its warm event arena; the server is
		// fresh, and New seeds its requests and latency blocks from a store
		// an earlier End returned (see server.runStore).
		sc := vt.cfg.Server
		sc.Seed = vt.seeds[i] + int64(ph.episode)*7919
		sc.DiscardLatencies = false
		vt.engs[i].Reset()
		srv, err := server.New(vt.engs[i], sc, vt.shells[i])
		if err != nil {
			return err
		}
		if err := srv.Begin(vt.cfg.Trace, vt.cfg.EpisodeLen); err != nil {
			return err
		}
		vt.srvs[i] = srv
	}
	vt.srvs[i].RunSegment(ph.until)
	if ph.settle {
		vt.results[i] = vt.srvs[i].End()
	}
	return nil
}

// Experience reports how many transitions have entered the shared replay
// pool — the throughput numerator for the vector benchmarks.
func (vt *VectorTrainer) Experience() uint64 { return vt.owner.Experience() }

// Train runs the vectorized loop for the configured episodes, returning
// per-episode statistics aggregated across environments.
func (vt *VectorTrainer) Train(ctx context.Context) ([]EpisodeStats, error) {
	vt.owner.SetTrain(true)
	for _, sh := range vt.shells {
		sh.SetTrain(true)
	}
	gang := pool.NewGang(vt.units, vt.cfg.Workers)
	defer gang.Close()
	// run executes one parallel phase and joins it.
	run := func(ph vecPhase) error {
		vt.phase = ph
		return gang.Run(ctx)
	}
	period := vt.owner.vecPeriod()
	stateW := vt.owner.vecStateDim()
	stats := make([]EpisodeStats, 0, vt.cfg.Episodes)
	for ep := 0; ep < vt.cfg.Episodes; ep++ {
		// Lockstep boundaries at 0, period, 2·period, … — the parallel phase
		// settles every env at the boundary (the control tick scheduled
		// exactly there fires inside its segment) while the learner catches
		// up on the previous boundary; then the serial phase observes and
		// acts in ascending env order.
		ph := vecPhase{episode: ep, arm: true}
		for t := sim.Time(0); t < vt.cfg.EpisodeLen; t += period {
			if err := ctx.Err(); err != nil {
				return stats, err
			}
			ph.until = t
			if err := run(ph); err != nil {
				return stats, err
			}
			for i, sh := range vt.shells {
				sh.vecObserve()
				sh.vecStateInto(vt.states[i*stateW : (i+1)*stateW])
			}
			rows := vt.owner.vecForward(vt.states, vt.cfg.Envs)
			rowW := len(rows) / vt.cfg.Envs
			for i, sh := range vt.shells {
				sh.vecActRow(t, rows[i*rowW:(i+1)*rowW])
			}
			ph = vecPhase{episode: ep, learn: true}
		}

		// Drain every env to the episode end and settle results, beside the
		// last boundary's updates.
		ph.until, ph.settle = vt.cfg.EpisodeLen, true
		if err := run(ph); err != nil {
			return stats, err
		}
		st := EpisodeStats{Episode: ep}
		var timeouts, completions uint64
		for i, sh := range vt.shells {
			res := vt.results[i]
			st.Return += sh.Return()
			st.AvgPowerW += res.AvgPowerW
			st.P99Seconds += res.Latency.P99
			timeouts += res.Counters.Timeouts
			completions += res.Counters.Completions
		}
		inv := 1 / float64(vt.cfg.Envs)
		st.Return *= inv // mean episode return across environments
		st.AvgPowerW *= inv
		st.P99Seconds *= inv
		if completions > 0 {
			st.TimeoutRate = float64(timeouts) / float64(completions)
		}
		reportInto(&st, vt.owner)
		stats = append(stats, st)
		if vt.cfg.OnEpisode != nil {
			if err := vt.cfg.OnEpisode(ep, st); err != nil {
				return stats, fmt.Errorf("agent: episode %d hook: %w", ep, err)
			}
		}
	}
	vt.owner.SetTrain(false)
	for _, sh := range vt.shells {
		sh.SetTrain(false)
	}
	return stats, nil
}
