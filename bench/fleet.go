package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/deeppower/deeppower/internal/cluster"
	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/exp"
	"github.com/deeppower/deeppower/internal/power"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

// The fleet harness's campaign constants and machine generations
// (internal/exp/fleet.go keeps them unexported; TestHarnessValuesPinned holds
// these copies to the originals): 100 ms control epochs, the global tier
// every 10 epochs, and three power generations assigned round-robin by shard
// — newer parts burn fewer watts per cycle and add efficiency cores next to
// the fast ones.
const (
	fleetEpoch       = 100 * sim.Millisecond
	fleetGlobalEvery = 10
	fleetSLA         = 20 * sim.Millisecond
)

var fleetGens = []struct {
	dynMul, leakMul, uncore float64
	efficient               float64 // efficiency cores per fast core
}{
	{0.80, 0.80, 0.90, 1.0}, // new
	{1.00, 1.00, 1.00, 0.5}, // mid
	{1.30, 1.25, 1.10, 0},   // old
}

func fleetPowerModel(shard int) power.Model {
	g := fleetGens[shard%len(fleetGens)]
	m := power.DefaultModel()
	m.DynCoef *= g.dynMul
	m.LeakPerCore *= g.leakMul
	m.Uncore *= g.uncore
	return m
}

func fleetTopology(shard, workers int) *cpu.Topology {
	eff := int(fleetGens[shard%len(fleetGens)].efficient*float64(workers) + 0.5)
	if eff <= 0 {
		return nil
	}
	t := cpu.DefaultHetero(workers, eff)
	return &t
}

// fleetJob is the fleet workload: cluster.Run over shards of four cores,
// each with an inference-only agent loaded from the set-up policy, behind
// the power-aware balancer and the global tier, over one diurnal period.
type fleetJob struct {
	setup  *exp.Setup
	policy []byte
	shards int
	trace  *workload.Trace
}

func setupFleet(sz sizing, _ int64) (job, error) {
	s, err := xapianSetup(sz.trainWorkers, sz.evalTrainEpisodes, sz.trainPeriod, sz.fleetDuration)
	if err != nil {
		return nil, err
	}
	// The harness's fleet operating point: a 20 ms SLO leaves the peaks
	// servable at turbo.
	s.Prof.SLA = fleetSLA
	policy, err := trainPolicy(s)
	if err != nil {
		return nil, err
	}
	trace := s.Trace.Scale(float64(sz.fleetShards))
	trace.Period = sz.fleetDuration // one compressed diurnal period
	return &fleetJob{setup: s, policy: policy, shards: sz.fleetShards, trace: trace}, nil
}

func (j *fleetJob) close() {}

func (j *fleetJob) rep(seed int64, tr *tracer) (outcome, error) {
	o, _, err := j.run(seed, tr, poolWorkers)
	return o, err
}

// campaign builds one campaign's shard and cluster configurations on the
// request streams seed generates.
func (j *fleetJob) campaign(seed int64) ([]cluster.ShardConfig, cluster.Config, error) {
	dur := j.setup.Scale.EvalDuration
	cfgs := make([]cluster.ShardConfig, j.shards)
	for i := range cfgs {
		dp, err := loadPolicy(j.policy)
		if err != nil {
			return nil, cluster.Config{}, fmt.Errorf("shard %d: %w", i, err)
		}
		scfg := j.setup.ServerConfig(sim.SubSeed(seed, fmt.Sprintf("fleet/shard/%d", i)))
		scfg.Power = fleetPowerModel(i)
		scfg.Topology = fleetTopology(i, j.setup.Prof.Workers)
		scfg.Warmup = dur / 10
		// Samples are retained (the harness discards them) so the fleet's
		// p99 can be the exact pooled one: any per-shard p99 of a four-core
		// shard spreads 15-35% over request streams.
		scfg.DiscardLatencies = false
		cfgs[i] = cluster.ShardConfig{Server: scfg, Policy: dp}
	}
	bal, err := cluster.NewBalancer(cluster.PowerAwareName)
	if err != nil {
		return nil, cluster.Config{}, err
	}
	return cfgs, cluster.Config{
		Trace:    j.trace,
		Duration: dur,
		Epoch:    fleetEpoch,
		Seed:     sim.SubSeed(seed, "fleet/arrivals"),
		Balancer: bal,
		// Uncapped, as the harness's balancer comparison runs: under a power
		// budget that binds (0.9 and 0.95 of the all-turbo draw were tried)
		// the ceilings ratchet differently on every request stream, and the
		// pooled p99 of one campaign moves 11% from stream to stream against
		// 5% without.
		Global: &cluster.GlobalConfig{Every: fleetGlobalEvery},
	}, nil
}

// run is one campaign at the given pool width; it also returns its host
// seconds.
func (j *fleetJob) run(seed int64, tr *tracer, workers int) (outcome, float64, error) {
	cfgs, cfg, err := j.campaign(seed)
	if err != nil {
		return outcome{}, 0, err
	}
	var before usage
	id := -1
	if tr != nil {
		before = readUsage()
		id = tr.begin(fmt.Sprintf("cluster.run.w%d", workers), tr.top)
	}
	t0 := time.Now()
	res, err := cluster.Run(context.Background(), cfg, cfgs, workers)
	hostS := time.Since(t0).Seconds()
	if err != nil {
		return outcome{}, 0, err
	}
	if tr != nil {
		tr.end(id)
	}

	var d digester
	d.f64(res.EnergyJ, res.AvgPowerW, res.TimeoutRate, res.WorstP99, res.MedianP99)
	d.u64(res.TotalRouted, res.Arrivals, res.Completions, res.Timeouts, res.InFlight, res.CappedWrites)
	d.u64(res.Routed...)
	var routed uint64
	shardsOK := true
	for i, sr := range res.PerShard {
		d.serverResult(sr)
		routed += res.Routed[i]
		shardsOK = shardsOK && sr.Counters.Arrivals == res.Routed[i]
	}
	epochs := uint64((cfg.Duration + fleetEpoch - 1) / fleetEpoch)
	o := outcome{
		digest:      d.sum(),
		energyJ:     res.EnergyJ,
		pooled:      res.PerShard, // p99Ms is the pooled p99; settle computes it
		timeoutRate: res.TimeoutRate,
		ops:         res.Completions,
		requests:    res.Completions,
		attempted:   res.TotalRouted,
		failed:      res.TotalRouted - min(res.TotalRouted, res.Completions+res.InFlight),
		checks: []check{
			{"fleet: total routed == sum of per-shard routed", res.TotalRouted == routed,
				fmt.Sprintf("total %d, sum %d", res.TotalRouted, routed)},
			{"fleet: every shard's arrivals == requests routed to it", shardsOK, "a shard lost or gained arrivals"},
			{"fleet: arrivals == completions + in flight",
				res.Arrivals == res.TotalRouted && res.Arrivals == res.Completions+res.InFlight,
				fmt.Sprintf("routed %d arrivals %d completions %d in flight %d",
					res.TotalRouted, res.Arrivals, res.Completions, res.InFlight)},
		},
		layer: values{
			"cluster.epochs":        float64(epochs),
			"cluster.routed":        float64(res.TotalRouted),
			"cluster.capped_writes": float64(res.CappedWrites),
			"cluster.epoch_us":      hostS * 1e6 / float64(epochs),
			"ckpt.policy_bytes":     float64(len(j.policy)),
		},
	}
	if tr != nil {
		o.layer["pool.cpu_over_host"] = (readUsage().cpu - before.cpu).Seconds() / hostS
	}
	return o, hostS, nil
}

// pooledP99 is the exact 99th percentile (nearest rank) of every shard's
// retained latency samples, in seconds. Sorting two million samples would
// cost a tenth of the repetition it is part of, so it counts them into
// linear buckets and sorts only the bucket the rank falls in.
func pooledP99(shards []*server.Result) float64 {
	n, hi := 0, 0.0
	for _, sr := range shards {
		n += len(sr.Latencies)
		for _, v := range sr.Latencies {
			hi = max(hi, v)
		}
	}
	if n == 0 || hi == 0 {
		return 0
	}
	const buckets = 1 << 16
	bucket := func(v float64) int { return int(v / hi * (buckets - 1)) }
	counts := make([]int, buckets)
	for _, sr := range shards {
		for _, v := range sr.Latencies {
			counts[bucket(v)]++
		}
	}
	rank := int(math.Ceil(0.99*float64(n))) - 1
	b, below := 0, 0
	for below+counts[b] <= rank {
		below += counts[b]
		b++
	}
	in := make([]float64, 0, counts[b])
	for _, sr := range shards {
		for _, v := range sr.Latencies {
			if bucket(v) == b {
				in = append(in, v)
			}
		}
	}
	sort.Float64s(in)
	return in[rank-below]
}

// extras times the same campaign at one pool worker against the untraced
// two-worker reference.
func (j *fleetJob) extras(seed int64, tr *tracer, ref outcome, refS float64) (values, []check, error) {
	one, oneS, err := j.run(seed, tr, 1)
	if err != nil {
		return nil, nil, err
	}
	return values{"pool.speedup_w2": oneS / refS},
		[]check{{"fleet: one pool worker reproduces the two-worker digest", one.digest == ref.digest,
			fmt.Sprintf("1 worker %016x, 2 workers %016x", one.digest, ref.digest)}}, nil
}
