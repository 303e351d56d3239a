package exp

import (
	"context"
	"fmt"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/pool"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

// GeneralizationResult backs the paper's §1 claim that DeepPower "can be
// generalized to different scenarios": a policy trained once on the diurnal
// trace is evaluated unchanged on workload shapes it never saw (a different
// diurnal seed, a square-wave load shift, a flash-crowd spike), with the
// no-management baseline on the same traces as the reference.
type GeneralizationResult struct {
	Scenarios []string
	// DeepPower and Baseline map scenario → result.
	DeepPower map[string]*server.Result
	Baseline  map[string]*server.Result
}

// GeneralizationScenarios are the unseen workload shapes, in render order.
var GeneralizationScenarios = []string{"diurnal-shifted-seed", "step", "spike"}

// generalizationTrace builds one scenario's workload from a setup's trace
// parameters. Deterministic in (setup, scale, name).
func generalizationTrace(setup *Setup, scale Scale, name string) *workload.Trace {
	peak := setup.Trace.MaxRate()
	period := setup.Trace.Period
	switch name {
	case "diurnal-shifted-seed":
		return workload.Diurnal(workload.DiurnalConfig{
			Period:    period,
			Buckets:   len(setup.Trace.Rates),
			BaseRPS:   1,
			PeakRPS:   3,
			NoiseFrac: 0.08,
			BurstProb: 0.03,
			BurstMul:  1.3,
			Seed:      scale.Seed + 555,
		}).ScaleToPeak(peak)
	case "step":
		return workload.Step(peak*0.25, peak, period, len(setup.Trace.Rates))
	case "spike":
		return workload.Spike(peak*0.3, peak, period, len(setup.Trace.Rates), 0.1)
	}
	panic("exp: unknown generalization scenario " + name)
}

// Generalization trains DeepPower on Xapian's standard diurnal setup and
// evaluates the frozen policy across shifted workloads. Each scenario is
// one self-contained pool work unit that deterministically retrains its own
// copy of the policy (identical weights at every worker count) rather than
// sharing one stateful agent across concurrent evaluations.
func Generalization(ctx context.Context, scale Scale, workers int) (*GeneralizationResult, error) {
	type genOut struct{ dp, base *server.Result }
	outs, err := pool.Map(ctx, GeneralizationScenarios, workers,
		func(_ context.Context, name string, _ int) (genOut, error) {
			setup, err := NewSetup(app.Xapian, scale)
			if err != nil {
				return genOut{}, err
			}
			dp, err := setup.TrainDeepPower()
			if err != nil {
				return genOut{}, err
			}
			trace := generalizationTrace(setup, scale, name)
			dpRes, err := runOn(setup, dp, trace, scale)
			if err != nil {
				return genOut{}, fmt.Errorf("exp: generalization %s: %w", name, err)
			}
			baseline, err := setup.BuildPolicy(MethodBaseline)
			if err != nil {
				return genOut{}, err
			}
			baseRes, err := runOn(setup, baseline, trace, scale)
			if err != nil {
				return genOut{}, fmt.Errorf("exp: generalization %s baseline: %w", name, err)
			}
			return genOut{dp: dpRes, base: baseRes}, nil
		})
	if err != nil {
		return nil, err
	}
	out := &GeneralizationResult{
		DeepPower: map[string]*server.Result{},
		Baseline:  map[string]*server.Result{},
	}
	for i, name := range GeneralizationScenarios {
		out.Scenarios = append(out.Scenarios, name)
		out.DeepPower[name] = outs[i].dp
		out.Baseline[name] = outs[i].base
	}
	return out, nil
}

func runOn(setup *Setup, pol server.Policy, trace *workload.Trace, scale Scale) (*server.Result, error) {
	eng := sim.NewEngine()
	srv, err := server.New(eng, setup.ServerConfig(scale.Seed+271), pol)
	if err != nil {
		return nil, err
	}
	return srv.Run(trace, scale.EvalDuration)
}

// Saving returns DeepPower's power saving vs baseline for one scenario.
func (r *GeneralizationResult) Saving(scenario string) float64 {
	base := r.Baseline[scenario].AvgPowerW
	if base == 0 {
		return 0
	}
	return 1 - r.DeepPower[scenario].AvgPowerW/base
}

// Artifacts renders the comparison table.
func (r *GeneralizationResult) Artifacts() []Artifact {
	return []Artifact{tableArtifact("generalization_xapian", r.Table())}
}

// Table renders the comparison.
func (r *GeneralizationResult) Table() *Table {
	t := &Table{
		Title:   "Generalization — " + app.Xapian + " (trained on diurnal only)",
		Columns: []string{"scenario", "dp power(W)", "base power(W)", "saving", "dp p99(ms)", "dp timeout %"},
	}
	for _, sc := range r.Scenarios {
		dp := r.DeepPower[sc]
		t.AddRow(sc,
			f2(dp.AvgPowerW),
			f2(r.Baseline[sc].AvgPowerW),
			f2(r.Saving(sc)*100)+"%",
			f3(dp.Latency.P99*1000),
			f3(dp.TimeoutRate*100))
	}
	return t
}
