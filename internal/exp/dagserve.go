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
	"github.com/deeppower/deeppower/internal/workload"
)

// dagserve workload variants: the same request population served either as
// one monolithic request or as the stage graph it decomposes into.
const (
	DAGServeFlat = "flat"
	DAGServeDAG  = "dag"
)

// DAGServeWorkloads is the comparison order.
var DAGServeWorkloads = []string{DAGServeFlat, DAGServeDAG}

// DAGServeModes are the policy-wrapping variants of the dagserve grid.
var DAGServeModes = []string{"bare", "guarded"}

// dagserve sizing: default worker count when the scale does not override it,
// end-to-end SLA, and the peak load fraction of flat capacity the diurnal
// trace is scaled to (precedence stalls make DAG capacity lower than the
// work-conserving flat bound, so the peak leaves headroom).
const (
	dagServeWorkers = 8
	dagServeSLA     = 10 * sim.Millisecond
	dagServePeak    = 0.50
)

// DAGServeDAG4 returns the dagserve microservice stage graph: a gate fans
// out to an auth check and a heavy-tailed search running in parallel, and a
// merge joins them —
//
//	gate ─┬─ auth ──┬─ merge
//	      └─ search ┘
//
// The search stage carries the long tail (Pareto spikes), so the job's
// critical path almost always runs gate→search→merge.
func DAGServeDAG4() *app.DAG {
	d := &app.DAG{
		Name: "searchsvc",
		Stages: []app.DAGStage{
			{Name: "gate", Sampler: &app.TailedSampler{
				BaseUS: 60, CoefUS: 25, Sigma1: 0.4, NoiseSigma: 0.10}},
			{Name: "auth", Preds: []int{0}, Sampler: &app.TailedSampler{
				BaseUS: 120, CoefUS: 60, Sigma1: 0.5, NoiseSigma: 0.15}},
			{Name: "search", Preds: []int{0}, Sampler: &app.TailedSampler{
				BaseUS: 200, CoefUS: 320, Sigma1: 0.9, Inter: 0.5, NoiseSigma: 0.25,
				TailProb: 0.01, TailScale: 900, TailAlpha: 1.6}},
			{Name: "merge", Preds: []int{1, 2}, Sampler: &app.TailedSampler{
				BaseUS: 90, CoefUS: 45, Sigma1: 0.5, NoiseSigma: 0.15}},
		},
	}
	if err := d.Validate(); err != nil {
		panic(err) // static graph; unreachable
	}
	return d
}

// sumSampler serves a DAG's total work as one monolithic request: it draws
// every stage in index order and sums the service times, so the flat and DAG
// variants of dagserve offer identical total work distributions.
type sumSampler struct {
	d       *app.DAG
	scratch app.Work
}

// FeatureDim implements app.Sampler (the summed request has no features).
func (s *sumSampler) FeatureDim() int { return 0 }

// Sample implements app.Sampler.
func (s *sumSampler) Sample(r *sim.RNG) app.Work {
	var w app.Work
	s.SampleInto(r, &w)
	return w
}

// SampleInto implements app.IntoSampler.
func (s *sumSampler) SampleInto(r *sim.RNG, w *app.Work) {
	var total sim.Time
	for _, st := range s.d.Stages {
		if into, ok := st.Sampler.(app.IntoSampler); ok {
			into.SampleInto(r, &s.scratch)
			total += s.scratch.ServiceRef
		} else {
			total += st.Sampler.Sample(r).ServiceRef
		}
	}
	w.ServiceRef = total
	w.Features = w.Features[:0]
}

// DAGServeProfile returns the dagserve application in one of its two forms:
// DAGServeDAG serves the stage graph, DAGServeFlat the same population
// collapsed into monolithic requests. Both share the end-to-end SLA.
func DAGServeProfile(kind string, workers int) (*app.Profile, error) {
	prof := &app.Profile{
		Name:           "searchsvc-" + kind,
		SLA:            dagServeSLA,
		Workers:        workers,
		RefFreq:        cpu.Freq(2.1),
		MemFrac:        0.25,
		ContentionCoef: 0.30,
	}
	switch kind {
	case DAGServeDAG:
		prof.DAG = DAGServeDAG4()
	case DAGServeFlat:
		prof.Sampler = &sumSampler{d: DAGServeDAG4()}
	default:
		return nil, fmt.Errorf("exp: unknown dagserve workload %q", kind)
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	return prof, nil
}

// dagServeSetup builds the Setup for one dagserve workload variant, scaling
// the diurnal trace against the variant's own capacity estimate (identical
// for both variants: same total work per arrival).
func dagServeSetup(kind string, scale Scale) (*Setup, error) {
	workers := scale.Workers
	if workers <= 0 {
		workers = dagServeWorkers
	}
	prof, err := DAGServeProfile(kind, workers)
	if err != nil {
		return nil, err
	}
	cfg := workload.DefaultDiurnal()
	cfg.Period = scale.TracePeriod
	cfg.Buckets = int(scale.TracePeriod.Seconds())
	if cfg.Buckets < 10 {
		cfg.Buckets = 10
	}
	cfg.Seed = scale.Seed
	trace := workload.Diurnal(cfg).
		ScaleToPeak(dagServePeak * prof.MaxCapacity(prof.RefFreq, scale.Seed))
	return &Setup{Prof: prof, Trace: trace, Scale: scale}, nil
}

// DAGServeFaultPlan is the light fault campaign both dagserve variants are
// evaluated under: governor-write lag plus occasional transient core
// failures — enough pressure to separate bare from guarded serving without
// drowning the DAG-vs-flat signal.
func DAGServeFaultPlan(seed int64, period sim.Time) fault.Plan {
	return fault.Plan{
		Seed: seed,
		Actuation: fault.ActuationPlan{
			ExtraLatency:  2 * sim.Millisecond,
			JitterLatency: 6 * sim.Millisecond,
			DropProb:      0.15,
		},
		Cores: fault.CorePlan{
			MTBF: period / 2,
			MTTR: period / 30,
		},
	}
}

// DAGServeResult is the dagserve grid: workload (flat vs DAG) × mode (bare
// vs guarded), each cell a trained DeepPower policy evaluated under the
// light fault plan.
type DAGServeResult struct {
	// Results maps workload → mode → result.
	Results map[string]map[string]*server.Result
}

// dagServeUnit is one (workload, mode) cell.
type dagServeUnit struct {
	workload string
	mode     string
}

// DAGServe runs the DAG-vs-flat serving comparison: the same request
// population — a four-stage microservice graph and its monolithic collapse —
// served by a freshly trained DeepPower policy, bare and guarded, under a
// light fault campaign. Each cell is one self-contained pool work unit
// (its own profile, trace, and training run), so the assembled result is
// byte-identical at any worker count.
func DAGServe(ctx context.Context, scale Scale, workers int) (*DAGServeResult, error) {
	var units []dagServeUnit
	for _, w := range DAGServeWorkloads {
		for _, mode := range DAGServeModes {
			units = append(units, dagServeUnit{workload: w, mode: mode})
		}
	}
	results, err := pool.Map(ctx, units, workers,
		func(_ context.Context, u dagServeUnit, _ int) (*server.Result, error) {
			setup, err := dagServeSetup(u.workload, scale)
			if err != nil {
				return nil, err
			}
			dp, err := setup.TrainDeepPower()
			if err != nil {
				return nil, fmt.Errorf("exp: dagserve %s/%s: %w", u.workload, u.mode, err)
			}
			var pol server.Policy = dp
			if u.mode == "guarded" {
				pol = fault.WithGuard(pol)
			}
			plan := DAGServeFaultPlan(sim.SubSeed(scale.Seed, "dagserve/"+u.workload), setup.Trace.Period)
			res, err := setup.EvaluateUnderFaults(pol, plan)
			if err != nil {
				return nil, fmt.Errorf("exp: dagserve %s/%s: %w", u.workload, u.mode, err)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	out := &DAGServeResult{Results: map[string]map[string]*server.Result{}}
	for i, u := range units {
		if out.Results[u.workload] == nil {
			out.Results[u.workload] = map[string]*server.Result{}
		}
		out.Results[u.workload][u.mode] = results[i]
	}
	return out, nil
}

// Artifacts renders the grid table.
func (r *DAGServeResult) Artifacts() []Artifact {
	return []Artifact{tableArtifact("dagserve_searchsvc", r.Table())}
}

// Table renders the grid with the DAG rows' critical-path accounting: the
// mean critical path lower-bounds achievable latency, and its share of the
// end-to-end mean separates processing from queueing/precedence stall.
func (r *DAGServeResult) Table() *Table {
	t := &Table{
		Title: "DAG serving (searchsvc: gate → auth ∥ search → merge, end-to-end SLA)",
		Columns: []string{"workload", "mode", "power W", "p99 ms", "timeout %", "Eq.2 met",
			"jobs", "CP ms", "CP share", "fallbacks"},
	}
	for _, w := range DAGServeWorkloads {
		for _, mode := range DAGServeModes {
			res := r.Results[w][mode]
			if res == nil {
				continue
			}
			cp, cpShare := "-", "-"
			jobs := res.Counters.Completions
			if res.Counters.JobCompletions > 0 {
				jobs = res.Counters.JobCompletions
				cp = f3(res.MeanCriticalPathSec * 1e3)
				cpShare = f2(res.MeanCriticalPathShare)
			}
			t.AddRow(w, mode,
				f2(res.AvgPowerW), f3(res.Latency.P99*1e3), f3(res.TimeoutRate*100),
				fmt.Sprint(res.TimeoutBudgetMet), fmt.Sprint(jobs), cp, cpShare,
				f(res.PolicyStats["guard.fallbacks"]))
		}
	}
	return t
}
