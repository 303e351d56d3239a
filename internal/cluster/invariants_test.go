package cluster

import (
	"context"
	"fmt"
	"testing"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

// clSampler serves fixed-size requests for the invariant suite.
type clSampler struct{ service sim.Time }

func (s clSampler) Sample(*sim.RNG) app.Work {
	return app.Work{ServiceRef: s.service, Features: []float64{1}}
}
func (s clSampler) FeatureDim() int { return 1 }

func clProfile(service, sla sim.Time, workers int) *app.Profile {
	return &app.Profile{
		Name:    "cl",
		SLA:     sla,
		Workers: workers,
		RefFreq: 2.1,
		Sampler: clSampler{service: service},
	}
}

// clPolicy pins every core at one frequency.
type clPolicy struct {
	server.BasePolicy
	f cpu.Freq
}

func (p *clPolicy) Name() string { return "fixed" }
func (p *clPolicy) OnTick(sim.Time) {
	for i := 0; i < p.Ctl.NumCores(); i++ {
		p.Ctl.SetFreq(i, p.f)
	}
}

// jsqChecker wraps JSQ and asserts, at every routing decision, that the
// chosen shard's backlog is minimal — JSQ must never route to a shard whose
// backlog strictly exceeds another's.
type jsqChecker struct {
	JSQ
	violations int
}

func (b *jsqChecker) Route(at []sim.Time, shards []ShardState, dst []int) {
	b.JSQ.Route(at, shards, dst)
	pending := make([]int, len(shards))
	for _, i := range dst[:len(at)] {
		got := shards[i].Backlog(pending[i])
		for j := range shards {
			if shards[j].Backlog(pending[j]) < got {
				b.violations++
				break
			}
		}
		pending[i]++
	}
}

// clShardConfigs builds n self-contained fixed-frequency shards.
func clShardConfigs(n, workers int, service, sla sim.Time, seed int64) []ShardConfig {
	cfgs := make([]ShardConfig, n)
	for i := range cfgs {
		cfgs[i] = ShardConfig{
			Server: server.Config{
				App:  clProfile(service, sla, workers),
				Seed: sim.SubSeed(seed, fmt.Sprintf("shard/%d", i)),
			},
			Policy: &clPolicy{f: 2.1},
		}
	}
	return cfgs
}

// TestClusterRandomizedInvariants is the fleet tier's 100-seed property
// suite, in the style of internal/exp's randomized invariants: for each
// randomized fleet configuration it checks fleet-wide request conservation
// (routed = Σ per-shard completed + in-flight, with timeouts a subset of
// completions), the round-robin fairness bound, and the JSQ
// never-route-to-a-strictly-longer-queue property at every routing decision.
func TestClusterRandomizedInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("100 randomized fleet simulations")
	}
	const iters = 100
	for seed := int64(0); seed < iters; seed++ {
		rng := sim.NewRNG(seed).Stream("cluster-invariants")
		nShards := 1 + rng.Intn(4)
		workers := 1 + rng.Intn(3)
		service := sim.Time(200+rng.Intn(800)) * sim.Microsecond
		sla := sim.Time(2+rng.Intn(8)) * sim.Millisecond
		rate := (100 + 300*float64(workers)*rng.Float64()) * float64(nShards)
		dur := 500 * sim.Millisecond
		epoch := sim.Time(20+rng.Intn(80)) * sim.Millisecond
		withGlobal := rng.Intn(2) == 0

		run := func(bal Balancer) *Result {
			t.Helper()
			cfg := Config{
				Trace:    workload.Constant(rate, dur),
				Duration: dur,
				Epoch:    epoch,
				Seed:     seed,
				Balancer: bal,
			}
			if withGlobal {
				cfg.Global = &GlobalConfig{Every: 2, PowerBudgetW: 30 * float64(nShards)}
			}
			res, err := Run(context.Background(), cfg,
				clShardConfigs(nShards, workers, service, sla, seed), 1+int(seed%4))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return res
		}

		// Invariant 1 — fleet request conservation: every routed request is
		// in exactly one shard, and within each shard is completed or still
		// in flight; timeouts are completions past the deadline.
		rr := run(&RoundRobin{})
		var sumRouted uint64
		for _, n := range rr.Routed {
			sumRouted += n
		}
		if rr.TotalRouted != sumRouted {
			t.Fatalf("seed %d: routed %d != Σ per-shard %d", seed, rr.TotalRouted, sumRouted)
		}
		if rr.TotalRouted != rr.Arrivals {
			t.Fatalf("seed %d: routed %d requests but shards saw %d arrivals",
				seed, rr.TotalRouted, rr.Arrivals)
		}
		if rr.Arrivals != rr.Completions+rr.InFlight {
			t.Fatalf("seed %d: conservation violated: %d arrivals vs %d completed + %d in flight",
				seed, rr.Arrivals, rr.Completions, rr.InFlight)
		}
		if rr.Timeouts > rr.Completions {
			t.Fatalf("seed %d: %d timeouts exceed %d completions", seed, rr.Timeouts, rr.Completions)
		}
		if rr.TotalRouted == 0 || rr.Completions == 0 {
			t.Fatalf("seed %d: degenerate run %+v", seed, rr)
		}

		// Invariant 2 — round-robin fairness: per-shard routed counts differ
		// by at most one.
		min, max := rr.Routed[0], rr.Routed[0]
		for _, n := range rr.Routed[1:] {
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if max-min > 1 {
			t.Fatalf("seed %d: round-robin unfair: routed %v", seed, rr.Routed)
		}

		// Invariant 3 — JSQ property, checked at every routing decision.
		checker := &jsqChecker{}
		jr := run(checker)
		if checker.violations > 0 {
			t.Fatalf("seed %d: JSQ routed to a strictly longer queue %d times", seed, checker.violations)
		}
		if jr.TotalRouted != rr.TotalRouted {
			t.Fatalf("seed %d: balancers saw different arrival processes: %d vs %d",
				seed, jr.TotalRouted, rr.TotalRouted)
		}
	}
}

// TestClusterWorkerCountEquivalence pins the package-level determinism
// contract directly (the harness-level test lives in internal/exp): the same
// fleet advanced with 1 worker and with 8 yields identical results. Besides
// a whole number of epochs, it runs a campaign shorter than one epoch and
// one that ends mid-epoch: the next epoch's arrivals are drawn clamped at
// the horizon, and each shard ends its run inside its unit of the final,
// short epoch.
func TestClusterWorkerCountEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated fleet simulations")
	}
	const epoch = 50 * sim.Millisecond
	for _, dur := range []sim.Time{sim.Second, 30 * sim.Millisecond, 1234 * sim.Millisecond} {
		for _, name := range BalancerNames() {
			results := make([]*Result, 2)
			for i, workers := range []int{1, 8} {
				bal, err := NewBalancer(name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(context.Background(), Config{
					Trace:    workload.Constant(800, sim.Second),
					Duration: dur,
					Epoch:    epoch,
					Seed:     7,
					Balancer: bal,
					Global:   &GlobalConfig{Every: 3, PowerBudgetW: 120},
				}, clShardConfigs(6, 2, 500*sim.Microsecond, 5*sim.Millisecond, 7), workers)
				if err != nil {
					t.Fatalf("%s, %v: %v", name, dur, err)
				}
				results[i] = res
			}
			a, b := results[0], results[1]
			if a.String() != b.String() {
				t.Errorf("%s, %v: results differ between workers=1 and workers=8:\n  %s\n  %s", name, dur, a, b)
			}
			for i := range a.Routed {
				if a.Routed[i] != b.Routed[i] {
					t.Errorf("%s, %v: shard %d routed %d vs %d", name, dur, i, a.Routed[i], b.Routed[i])
				}
			}
			if fmt.Sprint(a.Series) != fmt.Sprint(b.Series) {
				t.Errorf("%s, %v: fleet series differ across worker counts", name, dur)
			}
			if a.TotalRouted == 0 || a.TotalRouted != a.Arrivals || a.Arrivals != a.Completions+a.InFlight {
				t.Errorf("%s, %v: routed %d, arrivals %d, completions %d, in flight %d",
					name, dur, a.TotalRouted, a.Arrivals, a.Completions, a.InFlight)
			}
			if last := a.Series[len(a.Series)-1]; last.At != dur || len(a.Series) != int((dur+epoch-1)/epoch) {
				t.Errorf("%s, %v: %d series rows ending at %v, want one per epoch ending at the horizon",
					name, dur, len(a.Series), last.At)
			}
		}
	}
}
