package exp

import (
	"context"
	"fmt"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/pool"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// ColocationResult closes the loop on the paper's §3.1 motivation: a
// colocated workload (e.g. a batch job sharing the LLC and memory
// bandwidth) phases in mid-run, inflating service times beyond anything the
// offline-profiled predictors saw. Prediction-based policies mis-predict and
// time out; DeepPower's feedback loop observes the slowdown through its
// state vector and compensates.
type ColocationResult struct {
	Methods []string
	// Results maps method → evaluation under the phasing neighbor.
	Results map[string]*server.Result
}

// neighborPhase describes the colocated job: off for the first third of the
// run, fully on for the middle third, off again for the rest.
func neighborPhase(duration sim.Time) func(sim.Time) float64 {
	oneThird := duration / 3
	return func(t sim.Time) float64 {
		if t >= oneThird && t < 2*oneThird {
			return 1.0
		}
		return 0
	}
}

// Colocation evaluates methods (nil = baseline, ReTail, Gemini, DeepPower)
// on Xapian under the phasing neighbor. Predictors are
// profiled (and DeepPower trained) WITHOUT the neighbor, as in practice:
// colocation changes after deployment. Each method is one self-contained
// pool work unit with its own Setup, policy, and engine.
func Colocation(ctx context.Context, scale Scale, methods []string, workers int) (*ColocationResult, error) {
	if methods == nil {
		methods = []string{MethodBaseline, MethodRetail, MethodGemini, MethodDeepPower}
	}
	results, err := pool.Map(ctx, methods, workers,
		func(_ context.Context, m string, _ int) (*server.Result, error) {
			setup, err := NewSetup(app.Xapian, scale)
			if err != nil {
				return nil, err
			}
			pol, err := setup.BuildPolicy(m)
			if err != nil {
				return nil, fmt.Errorf("exp: colocation %s: %w", m, err)
			}
			cfg := setup.ServerConfig(scale.Seed + 631)
			cfg.Interference = neighborPhase(scale.EvalDuration)
			eng := sim.NewEngine()
			srv, err := server.New(eng, cfg, pol)
			if err != nil {
				return nil, err
			}
			res, err := srv.Run(setup.Trace, scale.EvalDuration)
			if err != nil {
				return nil, fmt.Errorf("exp: colocation %s: %w", m, err)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	out := &ColocationResult{Methods: methods, Results: map[string]*server.Result{}}
	for i, m := range methods {
		out.Results[m] = results[i]
	}
	return out, nil
}

// Artifacts renders the comparison table.
func (r *ColocationResult) Artifacts() []Artifact {
	return []Artifact{tableArtifact("colocation_xapian", r.Table())}
}

// Table renders the comparison.
func (r *ColocationResult) Table() *Table {
	t := &Table{
		Title:   "Colocation — " + app.Xapian + " (neighbor phases in mid-run)",
		Columns: []string{"method", "power(W)", "p99(ms)", "timeout %", "SLA met"},
	}
	for _, m := range r.Methods {
		res, ok := r.Results[m]
		if !ok {
			continue
		}
		t.AddRow(m, f2(res.AvgPowerW), f3(res.Latency.P99*1000),
			f3(res.TimeoutRate*100), fmt.Sprint(res.SLAMet))
	}
	return t
}
