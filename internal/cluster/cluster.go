// Package cluster scales the single-server simulation out to a fleet: N
// sharded server+engine instances — each the existing allocation-free fast
// path — advanced concurrently over a bounded worker pool, behind a
// pluggable load balancer and a global control tier.
//
// The control structure reproduces the two-level split of Liu et al.'s
// hierarchical cloud resource-allocation framework: the global tier assigns
// requests (shares) and power budgets across servers, while each server's
// local policy — here DeepPower's DVFS controller — manages its own cores.
//
// Determinism under parallelism is the package's core contract, and it
// falls out of a time-sliced design: virtual time advances in control
// epochs. At each epoch boundary the fleet tier runs serially — the global
// tier reassigns shares/budgets from epoch-boundary telemetry, and the
// balancer routes every arrival in the coming epoch, in arrival order,
// seeing only that stale boundary snapshot plus its own routing counts,
// into per-shard buffers. Then all shards advance one epoch concurrently,
// as one phase of a pool.Gang the campaign keeps for its whole run: each
// injects its own arrivals, runs, takes its snapshot and, on the final
// epoch, ends its run, while one more unit draws the next epoch's fleet
// arrivals. The gang's workers persist across epochs and each runs its own
// units first, so a shard's engine, server and agent state mostly stay on
// one goroutine, and with it in one CPU's cache, from epoch to epoch. Go
// does not pin goroutines to CPUs; this is locality only, and no result
// depends on it.
//
// Each shard owns its engine, server, policy, and RNG substream, and the
// arrival draw owns the fleet arrival stream, so no state is shared
// mid-epoch. The one thing shards share is the server package's pool of run
// stores: a shard's server takes a store at New and returns it at End, so
// the pool passes storage — emptied latency blocks, free requests and jobs
// — between runs and never a value any run reads. Routing never observes
// mid-epoch state, shard evolution never depends on sibling shards, and a
// fleet run with one worker is byte-identical to the same run with eight.
package cluster

import (
	"context"
	"fmt"
	"slices"

	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/pool"
	"github.com/deeppower/deeppower/internal/power"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

// ShardConfig is one server slot of the fleet. Configs must be fully
// self-contained — own *app.Profile, own policy, own fault injector — since
// shards run concurrently; sharing any mutable state between shard configs
// breaks both the race-freedom and the determinism contract.
type ShardConfig struct {
	// Server is the shard's simulation config. Its Seed drives the shard's
	// private service-time RNG; derive it from the fleet seed with
	// sim.SubSeed so serial and parallel runs agree (see Config.Seed).
	Server server.Config
	// Policy is the shard's local power-management policy (the local tier).
	Policy server.Policy
}

// Config parameterizes a fleet run.
type Config struct {
	// Trace is the fleet-level aggregate arrival-rate trace; the balancer
	// splits it across shards.
	Trace *workload.Trace
	// Duration is the campaign length.
	Duration sim.Time
	// Epoch is the control-epoch width: the balancer's telemetry staleness
	// and the granularity of parallel shard advancement. It should be a
	// multiple of the shards' control tick so epoch boundaries land on
	// settled accounting (default 100 ms).
	Epoch sim.Time
	// Seed drives the fleet arrival process (substream "fleet/arrivals").
	// Per-shard randomness comes from each ShardConfig's own server seed.
	Seed int64
	// Balancer routes arrivals to shards. Required.
	Balancer Balancer
	// Global, when non-nil, enables the global tier: periodic share
	// reassignment and (optionally) power budgeting. Nil keeps static
	// uniform shares.
	Global *GlobalConfig
	// SeriesEvery emits one fleet time-series row every SeriesEvery epochs
	// (default 1; the fleet harness uses 10 to get one row per second).
	SeriesEvery int
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.Trace == nil {
		return out, fmt.Errorf("cluster: Config.Trace is required")
	}
	if err := out.Trace.Validate(); err != nil {
		return out, err
	}
	if out.Duration <= 0 {
		return out, fmt.Errorf("cluster: non-positive duration %v", out.Duration)
	}
	if out.Epoch == 0 {
		out.Epoch = 100 * sim.Millisecond
	}
	if out.Epoch <= 0 {
		return out, fmt.Errorf("cluster: non-positive epoch %v", out.Epoch)
	}
	if out.Balancer == nil {
		return out, fmt.Errorf("cluster: Config.Balancer is required")
	}
	if out.SeriesEvery <= 0 {
		out.SeriesEvery = 1
	}
	return out, nil
}

// shard is one running server instance plus its fleet-side accounting.
type shard struct {
	id      int
	eng     *sim.Engine
	srv     *server.Server
	faults  server.FaultInjector // the shard's own fault campaign, nil if none
	ceil    cpu.Freq             // the global tier's frequency ceiling, 0 = none
	ladder  cpu.Ladder
	effCost float64
	floorW  float64

	state  ShardState // last epoch-boundary snapshot
	routed uint64     // fleet requests routed here
	inbox  []sim.Time // arrivals routed here for the coming epoch
	result *server.Result

	// window accounting for per-epoch telemetry deltas
	lastCounters server.Counters
	lastEnergy   float64
	epochEnergyJ float64
	epochPowerW  float64
	epochArr     uint64
	epochComp    uint64
	epochTmo     uint64
}

// snapshot refreshes the shard's epoch-boundary telemetry over the epoch
// that just elapsed (span may be short on the final epoch). Called inside
// the shard's pool unit — it touches only shard-local state.
func (sh *shard) snapshot(now, span sim.Time) {
	c := sh.srv.Counters()
	e := sh.srv.Energy()
	sh.epochArr = c.Arrivals - sh.lastCounters.Arrivals
	sh.epochComp = c.Completions - sh.lastCounters.Completions
	sh.epochTmo = c.Timeouts - sh.lastCounters.Timeouts
	sh.epochEnergyJ = e - sh.lastEnergy
	sh.epochPowerW = 0
	if dt := span.Seconds(); dt > 0 {
		sh.epochPowerW = sh.epochEnergyJ / dt
	}
	online := 0
	for i := 0; i < sh.srv.NumCores(); i++ {
		if sh.faults == nil || !sh.faults.CoreOffline(now, i) {
			online++
		}
	}
	wtr := 0.0
	if sh.epochComp > 0 {
		wtr = float64(sh.epochTmo) / float64(sh.epochComp)
	}
	sh.state = ShardState{
		ID:                sh.id,
		Cores:             sh.srv.NumCores(),
		Online:            online,
		Queue:             sh.srv.QueueLen(),
		Busy:              sh.srv.BusyCores(),
		Share:             sh.state.Share, // global tier overwrites between epochs
		FreqCapGHz:        float64(sh.ceil),
		EffCost:           sh.effCost,
		PowerW:            sh.epochPowerW,
		WindowTimeoutRate: wtr,
	}
	sh.lastCounters = c
	sh.lastEnergy = e
}

// Run executes one fleet campaign: the given shards under cfg's balancer
// and (optional) global tier, advancing up to workers shards concurrently
// per epoch. The result is byte-identical at any worker count.
func Run(ctx context.Context, cfg Config, shardCfgs []ShardConfig, workers int) (*Result, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(shardCfgs) == 0 {
		return nil, fmt.Errorf("cluster: no shards")
	}

	shards := make([]*shard, len(shardCfgs))
	for i, sc := range shardCfgs {
		pm := sc.Server.Power
		if pm == (power.Model{}) {
			pm = power.DefaultModel()
		}
		eng := sim.NewEngine()
		srv, err := server.New(eng, sc.Server, sc.Policy)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		if err := srv.BeginExternal(full.Duration); err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		lad := srv.Ladder()
		effCost := pm.CorePower(lad.Max, true)
		floorW := pm.Uncore + float64(srv.NumCores())*pm.CorePower(lad.Min, false)
		if t := sc.Server.Topology; t != nil {
			// Heterogeneous shard: the efficiency cost is the per-core mean
			// of each class's ladder-max draw, and the floor sums each
			// class's idle draw at its own ladder minimum — so the global
			// tier's power-aware weighting sees hybrid machines as cheaper
			// per core than their fast-only peers.
			var maxW, minW float64
			for _, c := range t.Classes {
				maxW += float64(c.Count) * pm.CorePowerScaled(c.Ladder.Max, true, c.DynFactor(), c.LeakFactor())
				minW += float64(c.Count) * pm.CorePowerScaled(c.Ladder.Min, false, c.DynFactor(), c.LeakFactor())
			}
			effCost = maxW / float64(t.TotalCores())
			floorW = pm.Uncore + minW
		}
		shards[i] = &shard{
			id:      i,
			eng:     eng,
			srv:     srv,
			faults:  sc.Server.Faults,
			ladder:  lad,
			effCost: effCost,
			floorW:  floorW,
		}
		shards[i].state = ShardState{
			ID:      i,
			Cores:   srv.NumCores(),
			Online:  srv.NumCores(),
			Share:   1,
			EffCost: shards[i].effCost,
		}
	}

	var global *globalTier
	if full.Global != nil {
		global = newGlobalTier(*full.Global, shards)
	}

	arrivals := workload.NewArrivals(full.Trace, sim.NewRNG(sim.SubSeed(full.Seed, "fleet/arrivals")))
	next := arrivals.Next()
	// The arrival and destination buffers start at the busiest epoch's
	// expected size, so a run ramping up to its peak leaves no chain of
	// outgrown copies behind; a busier epoch still grows them.
	peak := int(min(full.Trace.MaxRate()*full.Epoch.Seconds()*1.25, 1<<20)) + 16
	fleetAt := make([]sim.Time, 0, peak)
	dst := make([]int, 0, peak)
	// draw refills fleetAt with every fleet arrival before end.
	draw := func(end sim.Time) {
		fleetAt = fleetAt[:0]
		for ; next < end; next = arrivals.Next() {
			fleetAt = append(fleetAt, next)
		}
	}
	epochEndAfter := func(t sim.Time) sim.Time {
		return min(t+full.Epoch, full.Duration)
	}

	res := &Result{
		Balancer: full.Balancer.Name(),
		Shards:   len(shards),
		Duration: full.Duration,
		Epoch:    full.Epoch,
	}
	states := make([]ShardState, len(shards))
	// Unit 0 draws the next epoch's arrivals while units 1..n advance the
	// shards: the draw touches only the arrival stream and fleetAt, which
	// the routing phase has finished reading, and each shard unit only its
	// own shard.
	units := make([]pool.Unit, 1+len(shards))
	var epochStart, epochEnd sim.Time
	units[0] = func(context.Context) error {
		if epochEnd < full.Duration {
			draw(epochEndAfter(epochEnd))
		}
		return nil
	}
	for i, sh := range shards {
		sh := sh
		units[1+i] = func(context.Context) error {
			for _, at := range sh.inbox {
				if err := sh.srv.Inject(at); err != nil {
					return err
				}
			}
			sh.inbox = sh.inbox[:0]
			sh.eng.RunUntil(epochEnd)
			sh.snapshot(epochEnd, epochEnd-epochStart)
			if epochEnd == full.Duration {
				sh.result = sh.srv.End()
			}
			return nil
		}
	}

	gang := pool.NewGang(units, workers)
	defer gang.Close()

	var acc seriesAccum
	draw(epochEndAfter(0))
	for epoch, t := 0, sim.Time(0); t < full.Duration; epoch, t = epoch+1, epochEnd {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		epochStart = t
		epochEnd = epochEndAfter(t)

		// Serial fleet tier: global reassignment, then arrival routing.
		for i, sh := range shards {
			states[i] = sh.state
		}
		if global != nil && epoch > 0 && epoch%global.cfg.Every == 0 {
			global.reassign(states)
			global.rebudget(states, shards)
			for i, sh := range shards {
				sh.state.Share = global.share[i]
				states[i].Share = global.share[i]
				states[i].FreqCapGHz = float64(sh.ceil)
			}
		}
		dst = slices.Grow(dst[:0], len(fleetAt))[:len(fleetAt)]
		full.Balancer.Route(fleetAt, states, dst)
		for j, i := range dst {
			if i < 0 || i >= len(shards) {
				return nil, fmt.Errorf("cluster: balancer %q returned shard %d of %d",
					full.Balancer.Name(), i, len(shards))
			}
			sh := shards[i]
			sh.inbox = append(sh.inbox, fleetAt[j])
			sh.routed++
		}
		res.TotalRouted += uint64(len(fleetAt))

		// Parallel phase: the next epoch's arrival draw and one unit per shard.
		if err := gang.Run(ctx); err != nil {
			return nil, err
		}

		acc.add(shards, epochEnd-epochStart)
		if (epoch+1)%full.SeriesEvery == 0 || epochEnd == full.Duration {
			res.Series = append(res.Series, acc.row(epochEnd, shards))
			acc = seriesAccum{}
		}
	}

	res.finish(shards)
	return res, nil
}

// seriesAccum aggregates per-epoch fleet telemetry between series rows.
type seriesAccum struct {
	span    sim.Time
	energyJ float64
	arr     uint64
	comp    uint64
	tmo     uint64
}

func (a *seriesAccum) add(shards []*shard, span sim.Time) {
	a.span += span
	for _, sh := range shards {
		a.energyJ += sh.epochEnergyJ
		a.arr += sh.epochArr
		a.comp += sh.epochComp
		a.tmo += sh.epochTmo
	}
}

func (a *seriesAccum) row(at sim.Time, shards []*shard) EpochRow {
	r := EpochRow{
		At:          at,
		Arrivals:    a.arr,
		Completions: a.comp,
		Timeouts:    a.tmo,
		EnergyJ:     a.energyJ,
	}
	if dt := a.span.Seconds(); dt > 0 {
		r.PowerW = a.energyJ / dt
	}
	for _, sh := range shards {
		r.Queue += sh.state.Queue
	}
	return r
}
