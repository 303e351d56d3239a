package main

import (
	"github.com/deeppower/deeppower/internal/exp"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// evalSeedOffset is exp.Setup.EvaluateOn's distance between the training and
// the evaluation seed; TestHarnessValuesPinned holds a repetition to
// EvaluateOn's result.
const evalSeedOffset = 104729

// simEvalJob is the sim_eval workload: one DeepPower policy, trained in
// set-up, evaluated inference-only on a warm engine.
type simEvalJob struct {
	setup  *exp.Setup
	policy []byte
	eng    *sim.Engine
}

func setupSimEval(sz sizing, _ int64) (job, error) {
	s, err := xapianSetup(sz.evalWorkers, sz.evalTrainEpisodes, sz.evalPeriod, sz.evalDuration)
	if err != nil {
		return nil, err
	}
	policy, err := trainPolicy(s)
	if err != nil {
		return nil, err
	}
	return &simEvalJob{setup: s, policy: policy, eng: sim.NewEngine()}, nil
}

func (j *simEvalJob) close() {}

// rep is one evaluation, the computation of exp.Setup.EvaluateOn. The server
// is built here rather than there so the run can be driven in segments under
// tracing and its queue read afterwards; Run is Begin + RunUntil(end) + End,
// and the digest check holds the two drivings to the same result.
func (j *simEvalJob) rep(seed int64, tr *tracer) (outcome, error) {
	dp, err := loadPolicy(j.policy)
	if err != nil {
		return outcome{}, err
	}
	var pol server.Policy = dp
	var tp *tracedPolicy
	if tr != nil {
		tp = newTracedPolicy(dp, tr)
		pol = tp
	}
	j.eng.Reset()
	srv, err := server.New(j.eng, j.setup.ServerConfig(seed+evalSeedOffset), pol)
	if err != nil {
		return outcome{}, err
	}
	dur := j.setup.Scale.EvalDuration
	var res *server.Result
	if tr == nil {
		if res, err = srv.Run(j.setup.Trace, dur); err != nil {
			return outcome{}, err
		}
	} else {
		if err := srv.Begin(j.setup.Trace, dur); err != nil {
			return outcome{}, err
		}
		for t, done := sim.Second, false; !done; t += sim.Second {
			tp.parent = tr.begin(spanRun, tr.top)
			done = srv.RunSegment(t)
			tr.end(tp.parent)
		}
		res = srv.End()
	}
	o := serverOutcome("sim_eval", res, srv, j.eng.Fired())
	o.layer["ckpt.policy_bytes"] = float64(len(j.policy))
	if tp != nil {
		o.layer["control.ticks"] = float64(tp.ticks)
	}
	return o, nil
}

// serverOutcome turns one server run into an outcome.
func serverOutcome(who string, res *server.Result, srv *server.Server, events uint64) outcome {
	var d digester
	d.serverResult(res)
	c := res.Counters
	failed, ck := conservation(who, c, srv.QueueLen(), srv.BusyCores())
	return outcome{
		digest:      d.sum(),
		energyJ:     res.EnergyJ,
		p99Ms:       res.Latency.P99 * 1e3,
		timeoutRate: res.TimeoutRate,
		ops:         c.Completions,
		requests:    c.Completions,
		attempted:   c.Arrivals,
		failed:      failed,
		checks:      []check{ck},
		layer: values{
			"sim.events":             float64(events),
			"sim.events_per_req":     float64(events) / float64(max(1, c.Completions)),
			"server.latency_dropped": float64(c.LatencyDropped),
		},
	}
}
