package server_test

// External-package tests (server_test) so the fault package — which imports
// server — can be exercised against the server without an import cycle.

import (
	"math"
	"testing"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/fault"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

func extFixedApp(service sim.Time, workers int, sla sim.Time) *app.Profile {
	return &app.Profile{
		Name:    "fixed",
		SLA:     sla,
		Workers: workers,
		RefFreq: 2.1,
		Sampler: extConstSampler{service: service},
	}
}

type extConstSampler struct{ service sim.Time }

func (c extConstSampler) Sample(*sim.RNG) app.Work {
	return app.Work{ServiceRef: c.service, Features: []float64{1}}
}
func (c extConstSampler) FeatureDim() int { return 1 }

// extHostilePolicy emits invalid actions — NaN/Inf/negative frequencies and
// non-finite scores — mixed with plausible ones.
type extHostilePolicy struct {
	server.BasePolicy
	rng *sim.RNG
}

func (p *extHostilePolicy) Name() string { return "hostile" }

func (p *extHostilePolicy) OnTick(now sim.Time) {
	c := p.Ctl
	core := p.rng.Intn(c.NumCores())
	switch p.rng.Intn(6) {
	case 0:
		c.SetFreq(core, cpu.Freq(math.NaN()))
	case 1:
		c.SetFreq(core, cpu.Freq(math.Inf(1)))
	case 2:
		c.SetFreq(core, -2)
	case 3:
		c.SetScore(core, math.NaN())
	case 4:
		c.SetFreq(core, 999)
	case 5:
		c.SetFreq(core, cpu.Freq(p.rng.Uniform(0.5, 2.5)))
	}
}

// TestGuardedHostileUnderFaults wraps a hostile policy in the guard and
// runs it under an aggressive combined fault campaign: the run must not
// panic, accounting must stay consistent, invalid actions must be counted,
// and both fault and guard counters must surface on the Result.
func TestGuardedHostileUnderFaults(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		plan := fault.Plan{
			Seed: seed,
			Actuation: fault.ActuationPlan{
				ExtraLatency:  2 * sim.Millisecond,
				JitterLatency: 5 * sim.Millisecond,
				DropProb:      0.3,
				StuckProb:     0.02,
				StuckFor:      100 * sim.Millisecond,
			},
			Sensor: fault.SensorPlan{
				EnergyNoiseFrac: 0.1,
				StaleProb:       0.2,
				DropProb:        0.1,
				QueueJitter:     3,
			},
			Cores: fault.CorePlan{
				MTBF:         300 * sim.Millisecond,
				MTTR:         80 * sim.Millisecond,
				ThrottleCap:  1.0,
				ThrottleMTBF: 200 * sim.Millisecond,
				ThrottleMTTR: 50 * sim.Millisecond,
			},
		}
		prof := extFixedApp(800*sim.Microsecond, 3, 5*sim.Millisecond)
		inj, err := fault.NewInjector(plan, prof.Workers)
		if err != nil {
			t.Fatal(err)
		}
		guard := fault.NewGuardedPolicy(
			&extHostilePolicy{rng: sim.NewRNG(seed).Stream("hostile")},
			fault.GuardConfig{CheckEvery: 10 * sim.Millisecond})
		eng := sim.NewEngine()
		s, err := server.New(eng, server.Config{App: prof, Seed: seed, Faults: inj}, guard)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(workload.Constant(1200, sim.Second), 2*sim.Second)
		if err != nil {
			t.Fatal(err)
		}

		inFlight := uint64(s.BusyCores()) + uint64(s.QueueLen())
		if res.Counters.Arrivals != res.Counters.Completions+inFlight {
			t.Errorf("seed %d: conservation violated: %d != %d + %d",
				seed, res.Counters.Arrivals, res.Counters.Completions, inFlight)
		}
		if res.Counters.Completions == 0 {
			t.Errorf("seed %d: no completions under faults", seed)
		}
		if res.PolicyStats == nil {
			t.Fatalf("seed %d: guard exported no stats", seed)
		}
		if res.PolicyStats["guard.invalid_actions"] == 0 {
			t.Errorf("seed %d: hostile policy's invalid actions not counted", seed)
		}
		if res.FaultStats == nil {
			t.Fatalf("seed %d: injector exported no stats", seed)
		}
		var total uint64
		for _, v := range res.FaultStats {
			total += v
		}
		if total == 0 {
			t.Errorf("seed %d: aggressive plan injected zero faults", seed)
		}
		if math.IsNaN(res.EnergyJ) || res.EnergyJ <= 0 {
			t.Errorf("seed %d: energy accounting corrupted: %v", seed, res.EnergyJ)
		}
	}
}

// TestGuardTripsOnHostilePolicy checks the watchdog actually falls back:
// under a policy that is purely destructive (pins the ladder floor so
// everything times out), the guard must enter safe mode at least once.
func TestGuardTripsOnHostilePolicy(t *testing.T) {
	prof := extFixedApp(2*sim.Millisecond, 2, 3*sim.Millisecond)
	guard := fault.NewGuardedPolicy(&floorPolicy{},
		fault.GuardConfig{CheckEvery: 20 * sim.Millisecond, MinSamples: 16})
	eng := sim.NewEngine()
	s, err := server.New(eng, server.Config{App: prof, Seed: 42}, guard)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(workload.Constant(600, sim.Second), 3*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyStats["guard.fallbacks"] == 0 {
		t.Fatalf("guard never fell back on a floor-pinning policy: %+v (timeout rate %.3f)",
			res.PolicyStats, res.TimeoutRate)
	}
	if res.PolicyStats["guard.safe_ticks"] == 0 {
		t.Error("guard reports fallbacks but zero safe ticks")
	}
}

// floorPolicy pins every core at the ladder minimum each tick — a policy
// that has degenerated into its worst possible output.
type floorPolicy struct{ server.BasePolicy }

func (p *floorPolicy) Name() string { return "floor" }

func (p *floorPolicy) OnTick(now sim.Time) {
	for i := 0; i < p.Ctl.NumCores(); i++ {
		p.Ctl.SetFreq(i, p.Ctl.Ladder().Min)
	}
}
