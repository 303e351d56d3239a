package server

import (
	"math"
	"testing"

	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

// chaosPolicy drives the control surface with random actions every tick:
// random frequencies, turbo, scores, and sleep attempts on random cores.
// Whatever it does, the simulation must preserve its invariants.
type chaosPolicy struct {
	BasePolicy
	rng *sim.RNG
}

func (p *chaosPolicy) Name() string { return "chaos" }

func (p *chaosPolicy) OnTick(now sim.Time) {
	c := p.Ctl
	n := c.NumCores()
	for i := 0; i < 3; i++ {
		core := p.rng.Intn(n)
		switch p.rng.Intn(5) {
		case 0:
			c.SetFreq(core, cpu.Freq(p.rng.Uniform(0.1, 3.5)))
		case 1:
			c.SetTurbo(core)
		case 2:
			c.SetScore(core, p.rng.Uniform(-0.5, 1.5))
		case 3:
			c.Sleep(core, cpu.C6) // refused if busy
		case 4:
			c.Sleep(core, cpu.C1)
		}
	}
}

// TestChaosPolicyInvariants runs randomized policies over several seeds and
// checks the simulator's conservation and sanity invariants survive
// arbitrary (even nonsensical) control sequences.
func TestChaosPolicyInvariants(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		prof := fixedApp(800*sim.Microsecond, 3, 5*sim.Millisecond)
		prof.MemFrac = 0.2
		eng := sim.NewEngine()
		s, err := New(eng, Config{App: prof, Seed: seed},
			&chaosPolicy{rng: sim.NewRNG(seed).Stream("chaos")})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(workload.Constant(1500, sim.Second), 2*sim.Second)
		if err != nil {
			t.Fatal(err)
		}

		// Conservation.
		inFlight := uint64(s.BusyCores()) + uint64(s.QueueLen())
		if res.Counters.Arrivals != res.Counters.Completions+inFlight {
			t.Errorf("seed %d: conservation violated: %d != %d + %d",
				seed, res.Counters.Arrivals, res.Counters.Completions, inFlight)
		}
		// Energy strictly positive and bounded by the all-turbo envelope.
		maxP := s.cfg.Power.Uncore + 3*s.cfg.Power.CorePower(s.cfg.ladder.Turbo, true)
		if res.EnergyJ <= 0 || res.AvgPowerW > maxP {
			t.Errorf("seed %d: implausible energy %v (avg %vW, cap %vW)",
				seed, res.EnergyJ, res.AvgPowerW, maxP)
		}
		// No request finishes faster than physics allows: the fastest
		// possible service is all-turbo with the memory floor.
		floor := prof.ServiceAt(800*sim.Microsecond, s.cfg.ladder.Turbo).Seconds()
		for _, lat := range res.Latencies {
			if lat < floor-1e-9 {
				t.Fatalf("seed %d: latency %v below physical floor %v", seed, lat, floor)
			}
		}
		// Monotone virtual time: the engine never reports a Fired count
		// inconsistent with progress.
		if eng.Now() < 2*sim.Second {
			t.Errorf("seed %d: clock stopped at %v", seed, eng.Now())
		}
	}
}

// hostilePolicy is a malfunctioning policy: it emits NaN/Inf/out-of-ladder
// frequencies and non-finite scores. The simulator must absorb all of it
// without panicking or corrupting its accounting.
type hostilePolicy struct {
	BasePolicy
	rng *sim.RNG
}

func (p *hostilePolicy) Name() string { return "hostile" }

func (p *hostilePolicy) OnTick(now sim.Time) {
	c := p.Ctl
	n := c.NumCores()
	core := p.rng.Intn(n)
	switch p.rng.Intn(7) {
	case 0:
		c.SetFreq(core, cpu.Freq(math.NaN()))
	case 1:
		c.SetFreq(core, cpu.Freq(math.Inf(1)))
	case 2:
		c.SetFreq(core, -1)
	case 3:
		c.SetFreq(core, 1000) // far above the ladder
	case 4:
		c.SetScore(core, math.NaN())
	case 5:
		c.SetScore(core, math.Inf(-1))
	case 6:
		c.SetFreq(core, cpu.Freq(p.rng.Uniform(0.1, 3.5)))
	}
}

// TestHostilePolicyInvariants runs NaN-spewing policies over several seeds:
// the server must never panic, conservation must hold, and every core's
// target frequency must remain finite (non-finite requests quantize to the
// ladder floor or ceiling rather than propagating).
func TestHostilePolicyInvariants(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		prof := fixedApp(800*sim.Microsecond, 3, 5*sim.Millisecond)
		eng := sim.NewEngine()
		s, err := New(eng, Config{App: prof, Seed: seed},
			&hostilePolicy{rng: sim.NewRNG(seed).Stream("hostile")})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(workload.Constant(1500, sim.Second), 2*sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		inFlight := uint64(s.BusyCores()) + uint64(s.QueueLen())
		if res.Counters.Arrivals != res.Counters.Completions+inFlight {
			t.Errorf("seed %d: conservation violated: %d != %d + %d",
				seed, res.Counters.Arrivals, res.Counters.Completions, inFlight)
		}
		for i := range s.cores {
			f := float64(s.cores[i].Target())
			if math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 {
				t.Errorf("seed %d: core %d target frequency corrupted to %v", seed, i, f)
			}
		}
		if math.IsNaN(res.EnergyJ) || math.IsInf(res.EnergyJ, 0) || res.EnergyJ <= 0 {
			t.Errorf("seed %d: energy accounting corrupted: %v", seed, res.EnergyJ)
		}
	}
}

// TestChaosWithZeroLatencyLadder repeats the chaos run with instantaneous
// DVFS transitions, exercising the no-pending-switch code paths.
func TestChaosWithZeroLatencyLadder(t *testing.T) {
	ladder := cpu.DefaultLadder()
	ladder.TransitionLatency = 0
	prof := fixedApp(sim.Millisecond, 2, 10*sim.Millisecond)
	eng := sim.NewEngine()
	s, err := New(eng, Config{App: prof, ladder: ladder, Seed: 3},
		&chaosPolicy{rng: sim.NewRNG(3).Stream("chaos")})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(workload.Constant(700, sim.Second), sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Completions == 0 {
		t.Error("no completions")
	}
}
