package exp

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"

	"github.com/deeppower/deeppower/internal/agent"
	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/ckpt"
	"github.com/deeppower/deeppower/internal/cluster"
	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/fault"
	"github.com/deeppower/deeppower/internal/power"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// Fleet-harness constants: the control epoch the global/local split runs on,
// the global tier's reassignment cadence in epochs, and the time-series
// decimation (one row per second of virtual time).
const (
	fleetEpoch       = 100 * sim.Millisecond
	fleetGlobalEvery = 10
	fleetSeriesEvery = 10
	fleetMaxDuration = 90 * sim.Second
)

// fleetGen describes one machine generation of the heterogeneous fleet.
// Generations differ in power draw and core complement: newer parts burn
// fewer watts per cycle and bolt efficiency cores next to the fast ones,
// while the oldest generation is a homogeneous fast-core part from before
// hybrid silicon. Mixed hardware ages in one fleet is the signal a
// power-aware balancer exploits — a load-only balancer cannot tell the
// machines apart.
type fleetGen struct {
	name                 string
	dynMul, leakMul, unc float64
	// efficient is the generation's efficiency-core complement as a fraction
	// of the profile's fast-core count (0 = homogeneous).
	efficient float64
}

// fleetGens is the generation mix, assigned round-robin by shard index.
var fleetGens = []fleetGen{
	{name: "new", dynMul: 0.80, leakMul: 0.80, unc: 0.90, efficient: 1.0},
	{name: "mid", dynMul: 1.00, leakMul: 1.00, unc: 1.00, efficient: 0.5},
	{name: "old", dynMul: 1.30, leakMul: 1.25, unc: 1.10, efficient: 0},
}

// fleetPowerModel returns shard i's generation-scaled power model.
func fleetPowerModel(i int) power.Model {
	g := fleetGens[i%len(fleetGens)]
	m := power.DefaultModel()
	m.DynCoef *= g.dynMul
	m.LeakPerCore *= g.leakMul
	m.Uncore *= g.unc
	return m
}

// fleetTopology returns shard i's core topology: the generation's efficiency
// complement alongside the profile's fast cores, or nil for the homogeneous
// old generation. The fleet's sealed policy was trained homogeneous and does
// not drive placement, so hybrid shards run all cores — the extra efficiency
// cores add cheap capacity that the per-class power curves price in.
func fleetTopology(i, workers int) *cpu.Topology {
	g := fleetGens[i%len(fleetGens)]
	eff := int(g.efficient*float64(workers) + 0.5)
	if eff <= 0 {
		return nil
	}
	t := cpu.DefaultHetero(workers, eff)
	return &t
}

// FleetFaultPlan is the per-shard fault campaign of the fleet's degraded-mode
// variant: transient core failures plus thermal throttle episodes, scaled so
// every shard sees a few events per diurnal period.
func FleetFaultPlan(seed int64, period sim.Time) fault.Plan {
	return fault.Plan{
		Seed: seed,
		Cores: fault.CorePlan{
			MTBF:         period / 2,
			MTTR:         period / 20,
			ThrottleCap:  1.4,
			ThrottleMTBF: period / 4,
			ThrottleMTTR: period / 30,
		},
	}
}

// FleetResult holds the balancer-comparison campaigns and the fault-campaign
// variant of the fleet experiment.
type FleetResult struct {
	App    string
	Shards int
	// Campaigns maps balancer name → fleet result, in BalancerNames order.
	Campaigns map[string]*cluster.Result
	// Fault maps FleetFaultModes entries → fleet result under the fault
	// campaign (power-aware balancer, fleet power budget engaged).
	Fault map[string]*cluster.Result
}

// Fleet fault-variant modes: each shard's local agent runs bare, or wrapped
// in the max-frequency-pinning watchdog.
const (
	FleetFaultBare    = "bare"
	FleetFaultGuarded = "guarded"
)

// FleetFaultModes is the fault-variant comparison order.
var FleetFaultModes = []string{FleetFaultBare, FleetFaultGuarded}

// Fleet runs the cluster-scale experiment: one DeepPower policy is trained on
// the single-server diurnal workload, promoted through a checkpoint registry,
// and loaded into every shard's inference-only local agent; then the same
// heterogeneous fleet (FleetShards servers, mixed machine generations) serves
// the fleet-level diurnal trace once per balancer, with the global tier
// reassigning request shares every second. A final pair of campaigns repeats
// the power-aware run under a per-shard fault plan plus a fleet power budget,
// with bare and guarded local agents.
//
// Campaigns run sequentially; the parallelism is inside cluster.Run, which
// advances up to workers shards concurrently per epoch and is byte-identical
// at any worker count.
func Fleet(ctx context.Context, scale Scale, workers int) (*FleetResult, error) {
	shards := scale.FleetShards
	if shards <= 0 {
		shards = 4
	}
	setup, err := NewSetup(app.Xapian, scale)
	if err != nil {
		return nil, err
	}
	// The same looser operating point as the policy-lifecycle and robustness
	// experiments: a 20 ms fleet SLO leaves the peaks servable at turbo, so
	// the Eq. 2 budget measures balancing quality rather than raw saturation.
	setup.Prof.SLA = 20 * sim.Millisecond

	sealed, err := fleetTrainPromote(setup)
	if err != nil {
		return nil, err
	}

	out := &FleetResult{
		App:       setup.Prof.Name,
		Shards:    shards,
		Campaigns: map[string]*cluster.Result{},
		Fault:     map[string]*cluster.Result{},
	}
	// The fleet campaign compresses one full diurnal period into at most
	// fleetMaxDuration of virtual time: the balancer comparison needs the
	// whole load sweep (trough, ramp, peak), but a 100-server campaign at
	// the paper's 360 s horizon would be hundreds of millions of requests.
	// The compressed window still routes tens of millions at full scale.
	dur := scale.EvalDuration
	if dur > fleetMaxDuration {
		dur = fleetMaxDuration
	}
	fleetTrace := setup.Trace.Scale(float64(shards))
	if fleetTrace.Period > dur {
		fleetTrace.Period = dur
	}
	for _, name := range cluster.BalancerNames() {
		bal, err := cluster.NewBalancer(name)
		if err != nil {
			return nil, err
		}
		cfgs, err := fleetShardConfigs(setup, scale, shards, dur, sealed, "", nil)
		if err != nil {
			return nil, err
		}
		res, err := cluster.Run(ctx, cluster.Config{
			Trace:       fleetTrace,
			Duration:    dur,
			Epoch:       fleetEpoch,
			Seed:        sim.SubSeed(scale.Seed, "fleet/arrivals"),
			Balancer:    bal,
			Global:      &cluster.GlobalConfig{Every: fleetGlobalEvery},
			SeriesEvery: fleetSeriesEvery,
		}, cfgs, workers)
		if err != nil {
			return nil, fmt.Errorf("exp: fleet %s: %w", name, err)
		}
		out.Campaigns[name] = res
	}

	// Fault variant: power-aware balancing, per-shard fault campaigns, and a
	// fleet power budget tight enough that the global tier's frequency
	// ceilings engage on the inefficient generations.
	budget := fleetPowerBudget(setup, shards)
	for _, mode := range FleetFaultModes {
		bal, err := cluster.NewBalancer(cluster.PowerAwareName)
		if err != nil {
			return nil, err
		}
		cfgs, err := fleetShardConfigs(setup, scale, shards, dur, sealed, mode, func(i int) fault.Plan {
			return FleetFaultPlan(sim.SubSeed(scale.Seed, fmt.Sprintf("fleet/fault/%d", i)), setup.Trace.Period)
		})
		if err != nil {
			return nil, err
		}
		res, err := cluster.Run(ctx, cluster.Config{
			Trace:       fleetTrace,
			Duration:    dur,
			Epoch:       fleetEpoch,
			Seed:        sim.SubSeed(scale.Seed, "fleet/arrivals"),
			Balancer:    bal,
			Global:      &cluster.GlobalConfig{Every: fleetGlobalEvery, PowerBudgetW: budget},
			SeriesEvery: fleetSeriesEvery,
		}, cfgs, workers)
		if err != nil {
			return nil, fmt.Errorf("exp: fleet fault %s: %w", mode, err)
		}
		out.Fault[mode] = res
	}
	return out, nil
}

// fleetTrainPromote trains the fleet's single DeepPower policy on the
// per-server workload, promotes it through a (throwaway) checkpoint registry,
// and returns the promoted version re-sealed as a policy container — the
// bytes every shard's local agent loads.
func fleetTrainPromote(setup *Setup) ([]byte, error) {
	dp, err := setup.TrainDeepPower()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := dp.SavePolicy(&buf); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "fleet-registry-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	reg, err := ckpt.OpenRegistry(dir)
	if err != nil {
		return nil, err
	}
	v, err := reg.Put(buf.Bytes())
	if err != nil {
		return nil, err
	}
	if err := reg.Promote(v); err != nil {
		return nil, err
	}
	_, kind, payload, err := reg.GetCurrent()
	if err != nil {
		return nil, err
	}
	return ckpt.Seal(kind, payload), nil
}

// fleetShardConfigs builds one self-contained ShardConfig per shard: a fresh
// inference-only agent loaded from the promoted policy bytes, the shard's
// generation-scaled power model, a SubSeed-derived service RNG stream, and —
// for the fault variant — the shard's own injector and (optionally) guard.
func fleetShardConfigs(setup *Setup, scale Scale, shards int, dur sim.Time, sealed []byte,
	faultMode string, plan func(i int) fault.Plan) ([]cluster.ShardConfig, error) {
	cfgs := make([]cluster.ShardConfig, shards)
	for i := 0; i < shards; i++ {
		dp, err := agent.New(setup.agentConfig())
		if err != nil {
			return nil, err
		}
		if err := dp.LoadPolicy(bytes.NewReader(sealed)); err != nil {
			return nil, fmt.Errorf("exp: fleet shard %d load policy: %w", i, err)
		}
		scfg := setup.ServerConfig(sim.SubSeed(scale.Seed, fmt.Sprintf("fleet/shard/%d", i)))
		scfg.Power = fleetPowerModel(i)
		scfg.Topology = fleetTopology(i, setup.Prof.Workers)
		scfg.Warmup = dur / 10
		scfg.DiscardLatencies = true
		cores := setup.Prof.Workers
		if scfg.Topology != nil {
			cores = scfg.Topology.TotalCores()
		}
		var pol server.Policy = dp
		if plan != nil {
			inj, err := fault.NewInjector(plan(i), cores)
			if err != nil {
				return nil, err
			}
			scfg.Faults = inj
			if faultMode == FleetFaultGuarded {
				pol = fault.NewGuardedPolicy(dp, fault.GuardConfig{
					TimeoutRateLimit: 0.01,
					CheckEvery:       10 * sim.Millisecond,
					MinSamples:       16,
					Backoff:          10 * sim.Minute,
				})
			}
		}
		cfgs[i] = cluster.ShardConfig{Server: scfg, Policy: pol}
	}
	return cfgs, nil
}

// fleetPowerBudget is the fault variant's fleet-wide power cap: 90% of the
// fleet's all-on, all-turbo draw. The fraction is a measured trade between
// energy shed and timeouts added on top of the fault campaign's own ~2.3%:
// at 0.8 the ceilings bind so hard at peak that timeouts reach 15%, while
// at 0.9 the budget still clamps tens of millions of governor writes on
// busy inefficient shards but the fleet stays serviceable.
func fleetPowerBudget(setup *Setup, shards int) float64 {
	turbo := cpu.DefaultLadder().Max
	total := 0.0
	for i := 0; i < shards; i++ {
		m := fleetPowerModel(i)
		total += m.Uncore
		if t := fleetTopology(i, setup.Prof.Workers); t != nil {
			for _, c := range t.Classes {
				total += float64(c.Count) * m.CorePowerScaled(c.Ladder.Max, true, c.DynFactor(), c.LeakFactor())
			}
		} else {
			total += float64(setup.Prof.Workers) * m.CorePower(turbo, true)
		}
	}
	return 0.9 * total
}

// Artifacts renders the balancer and fault tables and the time series.
func (r *FleetResult) Artifacts() []Artifact {
	return []Artifact{
		tableArtifact("fleet_campaign", r.Table()),
		tableArtifact("fleet_fault", r.FaultTable()),
		csvArtifact("fleet_timeseries", r.CSVSeries()),
	}
}

// Table renders the balancer comparison.
func (r *FleetResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Fleet balancer comparison (%s, %d shards, hierarchical control)", r.App, r.Shards),
		Columns: []string{"balancer", "energy kJ", "avg power W", "worst p99 ms", "median p99 ms",
			"timeout %", "Eq.2 met", "routed", "spread"},
	}
	for _, name := range cluster.BalancerNames() {
		c := r.Campaigns[name]
		if c == nil {
			continue
		}
		t.AddRow(name,
			f2(c.EnergyJ/1e3), f2(c.AvgPowerW),
			f2(c.WorstP99*1e3), f2(c.MedianP99*1e3),
			f3(c.TimeoutRate*100), fmt.Sprint(c.TimeoutBudgetMet),
			fmt.Sprint(c.TotalRouted), f2(routedSpread(c.Routed)))
	}
	return t
}

// FaultTable renders the fault-campaign variant.
func (r *FleetResult) FaultTable() *Table {
	t := &Table{
		Title: fmt.Sprintf("Fleet fault campaign (%s, %d shards, power-aware, fleet power budget)", r.App, r.Shards),
		Columns: []string{"mode", "energy kJ", "avg power W", "worst p99 ms",
			"timeout %", "Eq.2 met", "capped writes", "fallbacks", "safe ticks"},
	}
	for _, mode := range FleetFaultModes {
		c := r.Fault[mode]
		if c == nil {
			continue
		}
		var fallbacks, safeTicks float64
		for _, sr := range c.PerShard {
			fallbacks += sr.PolicyStats["guard.fallbacks"]
			safeTicks += sr.PolicyStats["guard.safe_ticks"]
		}
		t.AddRow(mode,
			f2(c.EnergyJ/1e3), f2(c.AvgPowerW), f2(c.WorstP99*1e3),
			f3(c.TimeoutRate*100), fmt.Sprint(c.TimeoutBudgetMet),
			fmt.Sprint(c.CappedWrites), f(fallbacks), f(safeTicks))
	}
	return t
}

// routedSpread is max/min over per-shard routed counts (fleet balance skew;
// 1.0 = perfectly even).
func routedSpread(routed []uint64) float64 {
	if len(routed) == 0 {
		return 0
	}
	min, max := routed[0], routed[0]
	for _, n := range routed[1:] {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if min == 0 {
		return float64(max)
	}
	return float64(max) / float64(min)
}

// CSVSeries renders every campaign's fleet time series as one long-format
// CSV (balancer, window end, fleet counts, energy, power, queue).
func (r *FleetResult) CSVSeries() string {
	var b strings.Builder
	b.WriteString("balancer,at_s,arrivals,completions,timeouts,energy_j,power_w,queue\n")
	for _, name := range cluster.BalancerNames() {
		c := r.Campaigns[name]
		if c == nil {
			continue
		}
		for _, row := range c.Series {
			fmt.Fprintf(&b, "%s,%.3f,%d,%d,%d,%.3f,%.3f,%d\n",
				name, row.At.Seconds(), row.Arrivals, row.Completions, row.Timeouts,
				row.EnergyJ, row.PowerW, row.Queue)
		}
	}
	return b.String()
}
