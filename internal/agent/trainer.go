package agent

import (
	"fmt"

	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

// TrainConfig drives the training loop of Algorithm 2: the paper trains
// "with a long running workload", then tests the frozen policy on a short
// one.
type TrainConfig struct {
	// Episodes is how many trace periods to train for (default 8).
	Episodes int
	// EpisodeLen is the virtual duration of one episode (default: one
	// trace period).
	EpisodeLen sim.Time
	// Server configures the simulated latency-critical system; its Seed is
	// perturbed per episode so the agent sees varied arrivals. Its
	// DiscardLatencies is overridden to false: each episode's exact p99
	// (EpisodeStats.P99Seconds) comes from the retained samples, whose
	// storage the run store recycles from one episode's server to the next.
	Server server.Config
	// Trace is the request-rate trace to train against.
	Trace *workload.Trace
	// OnEpisode, when non-nil, runs after every episode with its stats —
	// the hook point for periodic checkpointing (export the policy, Put
	// and Promote it into a ckpt.Registry). A returned error aborts
	// training with the stats collected so far.
	OnEpisode func(ep int, st EpisodeStats) error
}

// Trainable is a policy the training loop can drive: DeepPower (DDPG) and
// DQNPower both qualify.
type Trainable interface {
	server.Policy
	// SetTrain toggles exploration and learning.
	SetTrain(train bool)
	// Return reports the reward accumulated over the current episode.
	Return() float64
}

// LossReporter is a policy that exposes its most recent training loss; the
// trainers record it into EpisodeStats for any policy that implements it,
// instead of type-switching on concrete agents.
type LossReporter interface {
	LastCriticLoss() float64
}

// DivergenceReporter is a policy that counts learner updates rolled back by
// a divergence guard.
type DivergenceReporter interface {
	DivergenceCount() uint64
}

// Both agent types report through the core they embed.
var (
	_ LossReporter       = (*core)(nil)
	_ DivergenceReporter = (*core)(nil)
)

// reportInto copies optional telemetry from a policy into episode stats.
func reportInto(st *EpisodeStats, dp Trainable) {
	if lr, ok := dp.(LossReporter); ok {
		st.CriticLoss = lr.LastCriticLoss()
	}
	if dr, ok := dp.(DivergenceReporter); ok {
		st.Divergences = dr.DivergenceCount()
	}
}

// EpisodeStats summarizes one training episode.
type EpisodeStats struct {
	Episode     int
	Return      float64 // summed reward
	AvgPowerW   float64
	TimeoutRate float64
	P99Seconds  float64
	CriticLoss  float64
	// Divergences is the learner's cumulative count of rolled-back
	// updates (non-finite loss or weights detected and recovered).
	Divergences uint64
}

// Train runs the policy through cfg.Episodes episodes, returning per-episode
// statistics. The policy's networks persist and improve across episodes.
func Train(dp Trainable, cfg TrainConfig) ([]EpisodeStats, error) {
	if cfg.Trace == nil {
		return nil, fmt.Errorf("agent: TrainConfig.Trace is required")
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
	dp.SetTrain(true)
	stats := make([]EpisodeStats, 0, cfg.Episodes)
	// One engine serves the whole run: Reset recycles its event arena and
	// free-list between episodes, so episode N+1 schedules into the warm
	// storage episode N grew instead of reallocating it.
	eng := sim.NewEngine()
	for ep := 0; ep < cfg.Episodes; ep++ {
		sc := cfg.Server
		sc.Seed = cfg.Server.Seed + int64(ep)*7919
		sc.DiscardLatencies = false
		eng.Reset()
		srv, err := server.New(eng, sc, dp)
		if err != nil {
			return stats, err
		}
		res, err := srv.Run(cfg.Trace, cfg.EpisodeLen)
		if err != nil {
			return stats, err
		}
		st := EpisodeStats{
			Episode:     ep,
			Return:      dp.Return(),
			AvgPowerW:   res.AvgPowerW,
			TimeoutRate: res.TimeoutRate,
			P99Seconds:  res.Latency.P99,
		}
		reportInto(&st, dp)
		stats = append(stats, st)
		if cfg.OnEpisode != nil {
			if err := cfg.OnEpisode(ep, st); err != nil {
				return stats, fmt.Errorf("agent: episode %d hook: %w", ep, err)
			}
		}
	}
	dp.SetTrain(false)
	return stats, nil
}

// Evaluate runs the policy (without exploration or learning) once on a
// fresh engine and returns the result.
func Evaluate(dp Trainable, cfg server.Config, trace *workload.Trace, duration sim.Time) (*server.Result, error) {
	dp.SetTrain(false)
	srv, err := server.New(sim.NewEngine(), cfg, dp)
	if err != nil {
		return nil, err
	}
	return srv.Run(trace, duration)
}
