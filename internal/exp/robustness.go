package exp

import (
	"context"
	"fmt"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/fault"
	"github.com/deeppower/deeppower/internal/pool"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// Scenario is one named fault-injection campaign.
type Scenario struct {
	Name string
	Plan fault.Plan
}

// Scenarios returns the robustness evaluation's fault campaigns, each
// reproducible from the given seed. They map to the hardware phenomena
// DESIGN.md catalogs: slow/lossy governor writes, noisy RAPL telemetry,
// core hotplug and thermal throttling, and flash-crowd load bursts.
func Scenarios(seed int64) []Scenario {
	return []Scenario{
		{
			Name: "actuation-lag",
			Plan: fault.Plan{
				Seed: seed,
				Actuation: fault.ActuationPlan{
					ExtraLatency:  5 * sim.Millisecond,
					JitterLatency: 15 * sim.Millisecond,
					DropProb:      0.40,
				},
			},
		},
		{
			Name: "sensor-noise",
			Plan: fault.Plan{
				Seed: seed,
				Sensor: fault.SensorPlan{
					EnergyNoiseFrac: 0.05,
					StaleProb:       0.20,
					DropProb:        0.05,
					QueueJitter:     2,
				},
			},
		},
		{
			Name: "core-failures",
			Plan: fault.Plan{
				Seed: seed,
				Cores: fault.CorePlan{
					MTBF:         4 * sim.Second,
					MTTR:         500 * sim.Millisecond,
					ThrottleCap:  cpu.Freq(1.2),
					ThrottleMTBF: 6 * sim.Second,
					ThrottleMTTR: 400 * sim.Millisecond,
				},
			},
		},
		{
			Name: "load-bursts",
			Plan: fault.Plan{
				Seed: seed,
				Load: fault.LoadPlan{SpikeProb: 0.15, SpikeMul: 1.6},
			},
		},
		{
			Name: "combined",
			Plan: fault.Plan{
				Seed: seed,
				Actuation: fault.ActuationPlan{
					ExtraLatency:  2 * sim.Millisecond,
					JitterLatency: 8 * sim.Millisecond,
					DropProb:      0.20,
				},
				Sensor: fault.SensorPlan{
					EnergyNoiseFrac: 0.03,
					StaleProb:       0.10,
					QueueJitter:     1,
				},
				Cores: fault.CorePlan{
					MTBF: 8 * sim.Second,
					MTTR: 300 * sim.Millisecond,
				},
				Load: fault.LoadPlan{SpikeProb: 0.08, SpikeMul: 1.4},
			},
		},
	}
}

// EvaluateUnderFaults runs one policy over the evaluation window with the
// given fault campaign active: the plan's load bursts are layered onto the
// trace and a fresh injector perturbs actuation, sensing, and cores.
func (s *Setup) EvaluateUnderFaults(pol server.Policy, plan fault.Plan) (*server.Result, error) {
	inj, err := fault.NewInjector(plan, s.Prof.Workers)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	cfg := s.ServerConfig(s.Scale.Seed + 104729)
	cfg.Faults = inj
	srv, err := server.New(eng, cfg, pol)
	if err != nil {
		return nil, err
	}
	return srv.Run(plan.ApplyToTrace(s.Trace), s.Scale.EvalDuration)
}

// RobustnessMethods is the comparison set for the robustness experiment.
var RobustnessMethods = []string{MethodRetail, MethodGemini, MethodDeepPower}

// RobustnessResult compares each method bare vs guarded under every fault
// scenario on Xapian.
type RobustnessResult struct {
	Scenarios []string
	// Bare and Guarded map scenario → method → result.
	Bare    map[string]map[string]*server.Result
	Guarded map[string]map[string]*server.Result
}

// robustnessUnit is one (scenario, method, guarded) evaluation cell.
type robustnessUnit struct {
	scenario Scenario
	method   string
	guarded  bool
}

// Robustness runs the fault-injection comparison: every method is trained
// on the clean trace, then evaluated both bare and wrapped in the
// guarded-policy watchdog under each fault scenario. Each (scenario,
// method, bare/guarded) cell is one self-contained pool work unit that
// rebuilds its own Setup and policy — policies keep state across runs
// (DeepPower's controller, the guard's window), so nothing may be shared.
func Robustness(ctx context.Context, scale Scale, workers int) (*RobustnessResult, error) {
	var units []robustnessUnit
	for _, sc := range Scenarios(scale.Seed) {
		for _, method := range RobustnessMethods {
			for _, guarded := range []bool{false, true} {
				units = append(units, robustnessUnit{scenario: sc, method: method, guarded: guarded})
			}
		}
	}
	results, err := pool.Map(ctx, units, workers,
		func(_ context.Context, u robustnessUnit, _ int) (*server.Result, error) {
			setup, err := NewSetup(app.Xapian, scale)
			if err != nil {
				return nil, err
			}
			pol, err := setup.BuildPolicy(u.method)
			if err != nil {
				return nil, fmt.Errorf("exp: robustness %s/%s: %w", u.scenario.Name, u.method, err)
			}
			if u.guarded {
				pol = fault.WithGuard(pol)
			}
			res, err := setup.EvaluateUnderFaults(pol, u.scenario.Plan)
			if err != nil {
				return nil, fmt.Errorf("exp: robustness %s/%s: %w", u.scenario.Name, u.method, err)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}

	out := &RobustnessResult{
		Bare:    map[string]map[string]*server.Result{},
		Guarded: map[string]map[string]*server.Result{},
	}
	for i, u := range units {
		name := u.scenario.Name
		if out.Bare[name] == nil {
			out.Scenarios = append(out.Scenarios, name)
			out.Bare[name] = map[string]*server.Result{}
			out.Guarded[name] = map[string]*server.Result{}
		}
		if u.guarded {
			out.Guarded[name][u.method] = results[i]
		} else {
			out.Bare[name][u.method] = results[i]
		}
	}
	return out, nil
}

// Artifacts renders one table per scenario.
func (r *RobustnessResult) Artifacts() []Artifact {
	var out []Artifact
	for i, t := range r.Tables() {
		out = append(out, tableArtifact("robustness_xapian_"+r.Scenarios[i], t))
	}
	return out
}

// Tables renders one table per scenario: per method, bare vs guarded power,
// timeout rate, Eq. 2 budget, and guard interventions.
func (r *RobustnessResult) Tables() []*Table {
	var out []*Table
	for _, sc := range r.Scenarios {
		t := &Table{
			Title: fmt.Sprintf("Robustness (%s) — scenario %q", app.Xapian, sc),
			Columns: []string{"method", "power W", "timeout %", "Eq.2 met",
				"guard power W", "guard timeout %", "guard Eq.2", "fallbacks", "invalid"},
		}
		for _, m := range RobustnessMethods {
			b, g := r.Bare[sc][m], r.Guarded[sc][m]
			t.AddRow(m,
				f2(b.AvgPowerW), f3(b.TimeoutRate*100), fmt.Sprint(b.TimeoutBudgetMet),
				f2(g.AvgPowerW), f3(g.TimeoutRate*100), fmt.Sprint(g.TimeoutBudgetMet),
				f(g.PolicyStats["guard.fallbacks"]), f(g.PolicyStats["guard.invalid_actions"]),
			)
		}
		out = append(out, t)
	}
	return out
}
