package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"github.com/deeppower/deeppower/internal/agent"
	"github.com/deeppower/deeppower/internal/exp"
	"github.com/deeppower/deeppower/internal/sim"
)

// trainJob is train_single (envs == 1, agent.Train) or train_vector
// (agent.VectorTrainer over envs lockstep environments): one full training
// from a fresh agent per repetition, at the harness's quick scale.
type trainJob struct {
	name  string
	setup *exp.Setup
	envs  int
	// trained is the agent the latest traced repetition produced, kept for
	// the held-out evaluation in extras.
	trained *agent.DeepPower
}

func setupTrainSingle(sz sizing, _ int64) (job, error) { return setupTrain("train_single", sz, 1) }
func setupTrainVector(sz sizing, _ int64) (job, error) {
	return setupTrain("train_vector", sz, sz.vecEnvs)
}

// setupTrain builds the profile and trace and runs one untimed episode, so
// the first measured repetition finds the heap grown and the code paths warm.
func setupTrain(name string, sz sizing, envs int) (job, error) {
	s, err := xapianSetup(sz.trainWorkers, sz.trainEpisodes, sz.trainPeriod, sz.heldout)
	if err != nil {
		return nil, err
	}
	j := &trainJob{name: name, setup: s, envs: envs}
	dp, err := agent.New(agentConfig())
	if err != nil {
		return nil, err
	}
	if _, err := j.trainWith(dp, dp, shapeSeed, 1, poolWorkers, nil); err != nil {
		return nil, err
	}
	return j, nil
}

func (j *trainJob) close() {}

// stepsPerEpisode is how many agent steps (single) or lockstep boundaries
// (vector) one episode holds; the first of them has no previous state and
// pushes no transition.
func (j *trainJob) stepsPerEpisode() int {
	return int(j.setup.Trace.Period / agentConfig().LongTime)
}

// trainWith trains dp, driving it through pol where the single-environment
// trainer takes a policy (the traced run passes a wrapper there).
func (j *trainJob) trainWith(dp *agent.DeepPower, pol agent.Trainable, seed int64, episodes, workers int, onEpisode func(int, agent.EpisodeStats) error) ([]agent.EpisodeStats, error) {
	if j.envs == 1 {
		return agent.Train(pol, agent.TrainConfig{
			Episodes:   episodes,
			EpisodeLen: j.setup.Trace.Period,
			Server:     trainServerConfig(j.setup, seed),
			Trace:      j.setup.Trace,
			OnEpisode:  onEpisode,
		})
	}
	vt, err := agent.NewVectorTrainer(dp, agent.TrainVectorConfig{
		Envs:       j.envs,
		Workers:    workers,
		Episodes:   episodes,
		EpisodeLen: j.setup.Trace.Period,
		Server:     trainServerConfig(j.setup, seed),
		Trace:      j.setup.Trace,
		OnEpisode:  onEpisode,
	})
	if err != nil {
		return nil, err
	}
	return vt.Train(context.Background())
}

func (j *trainJob) rep(seed int64, tr *tracer) (outcome, error) {
	return j.repWorkers(seed, tr, poolWorkers)
}

func (j *trainJob) repWorkers(seed int64, tr *tracer, workers int) (outcome, error) {
	episodes := j.setup.Scale.TrainEpisodes
	dp, err := agent.New(agentConfig())
	if err != nil {
		return outcome{}, err
	}
	var pol agent.Trainable = dp
	var onEpisode func(int, agent.EpisodeStats) error
	var tp *tracedPolicy
	var episodeS []float64
	var before usage
	t0 := time.Now()
	if tr != nil {
		// Episode bounds are taken at the OnEpisode hook: one Server.Run
		// (single) or one lockstep episode (vector) per span. The vector
		// trainer builds its per-environment policies itself, so its spans
		// have no callback children and are not server time.
		name := spanEpisode
		if j.envs == 1 {
			tp = newTracedPolicy(dp, tr)
			pol = tracedTrainable{tp}
			name = spanRun
		}
		var cur int
		open := func() {
			cur = tr.begin(name, tr.top)
			if tp != nil {
				tp.parent = cur
			}
		}
		open()
		last := t0
		onEpisode = func(ep int, _ agent.EpisodeStats) error {
			tr.end(cur)
			now := time.Now()
			episodeS = append(episodeS, now.Sub(last).Seconds())
			last = now
			if ep+1 < episodes {
				open()
			}
			return nil
		}
		before = readUsage()
	}
	stats, err := j.trainWith(dp, pol, seed, episodes, workers, onEpisode)
	if err != nil {
		return outcome{}, err
	}
	hostS := time.Since(t0).Seconds()

	var policy bytes.Buffer
	if err := dp.SavePolicy(&policy); err != nil {
		return outcome{}, err
	}
	pushed := dp.Experience()
	expected := uint64(j.envs * episodes * (j.stepsPerEpisode() - 1))

	// The simulated result of a training is its trajectory: per-environment
	// energy summed, timeout rate averaged, and the episodes' p99 averaged on
	// a square-root scale. The episodes span two orders of magnitude: the
	// first explores (p99 0.33 s single, 2.5 s vector, 11% from one request
	// stream to the next) and the last ones follow a half-trained policy that
	// on the single environment is chaotic in the stream (6 ms..120 ms). The
	// arithmetic mean is the exploration episode alone and the geometric mean
	// gives the chaotic ones a full vote; over 400 single and 160 vector
	// trainings the ten-seed spread of a run's p99 was 0.038/0.058 with the
	// arithmetic mean, 0.050/0.038 on the square-root scale and 0.069/0.025
	// with the geometric mean (single at 12 streams / vector at 6). (A
	// held-out evaluation of the trained policy is too chaotic to bound at
	// all; the traced run reports it ungated.)
	var d digester
	var energy, rootP99, rate float64
	finite := true
	for _, st := range stats {
		energy += st.AvgPowerW * j.setup.Trace.Period.Seconds()
		rootP99 += math.Sqrt(st.P99Seconds*1e3) / float64(len(stats))
		rate += st.TimeoutRate / float64(len(stats))
		d.f64(st.Return, st.AvgPowerW, st.TimeoutRate, st.P99Seconds, st.CriticLoss)
		d.u64(st.Divergences)
		finite = finite && !math.IsNaN(st.Return+st.CriticLoss) && !math.IsInf(st.Return+st.CriticLoss, 0)
	}
	d.u64(pushed)
	d.bytes(policy.Bytes())

	o := outcome{
		digest:      d.sum(),
		energyJ:     energy,
		p99Ms:       rootP99 * rootP99,
		timeoutRate: rate,
		ops:         pushed,
		attempted:   expected,
		failed:      expected - min(expected, pushed),
		checks: []check{
			{fmt.Sprintf("%s: pushed %d environments x the single-environment transitions", j.name, j.envs),
				pushed == expected, fmt.Sprintf("pushed %d, expected %d", pushed, expected)},
			{j.name + ": returns and losses finite", finite, "non-finite episode statistics"},
			{j.name + ": policy loads back", loadsBack(policy.Bytes()), "saved policy did not load (non-finite weights are refused)"},
		},
	}
	if tr != nil {
		after := readUsage()
		j.trained = dp
		o.layer = values{
			"agent.transitions":       float64(pushed),
			"agent.transitions_per_s": float64(pushed) / hostS,
			"agent.episode_s":         median(episodeS),
			"ckpt.policy_bytes":       float64(policy.Len()),
		}
		if j.envs == 1 {
			o.layer["rl.updates"] = float64(tp.learnSteps) * float64(agentConfig().UpdatesPerStep)
			o.layer["control.ticks"] = float64(tp.ticks)
		} else {
			// The vector trainer drives per-environment shells it builds
			// itself, so there is no seam to watch: DeepPower.vecLearn runs
			// UpdatesPerStep updates at every boundary after the warm-up.
			cfg := agentConfig()
			o.layer["rl.updates"] = float64((episodes*j.stepsPerEpisode() - cfg.WarmupSteps) * cfg.UpdatesPerStep)
			o.layer["agent.vec_mallocs_per_transition"] = float64(after.mallocs-before.mallocs) / float64(max(1, pushed))
			o.layer["agent.vec_alloc_mb"] = float64(after.alloc-before.alloc) / 1e6
			o.layer["pool.cpu_over_host"] = (after.cpu - before.cpu).Seconds() / hostS
		}
	}
	return o, nil
}

// loadsBack reports whether saved policy bytes load into a fresh agent;
// LoadPolicy refuses non-finite weights.
func loadsBack(policy []byte) bool {
	_, err := loadPolicy(policy)
	return err == nil
}

// extras evaluates the policy the traced repetition trained on a held-out
// window, and for the vector trainer times the same training at one pool
// worker against the untraced two-worker reference (refS).
func (j *trainJob) extras(seed int64, tr *tracer, ref outcome, refS float64) (values, []check, error) {
	held := *j.setup
	held.Scale.Seed = seed
	res, err := held.EvaluateOn(sim.NewEngine(), j.trained)
	if err != nil {
		return nil, nil, err
	}
	vs := values{
		"agent.heldout_energy_j":     res.EnergyJ,
		"agent.heldout_p99_ms":       res.Latency.P99 * 1e3,
		"agent.heldout_timeout_rate": res.TimeoutRate,
	}
	if j.envs == 1 {
		return vs, nil, nil
	}
	w1 := tr.begin("agent.vector_train.w1", -1)
	one, err := j.repWorkers(seed, nil, 1)
	tr.end(w1)
	if err != nil {
		return nil, nil, err
	}
	vs["pool.speedup_w2"] = float64(tr.spans[w1].EndNs-tr.spans[w1].StartNs) / 1e9 / refS
	return vs, []check{{"train_vector: one pool worker reproduces the two-worker digest",
		one.digest == ref.digest,
		fmt.Sprintf("1 worker %016x, 2 workers %016x", one.digest, ref.digest)}}, nil
}
