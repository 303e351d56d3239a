package exp

import (
	"context"
	"fmt"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/pool"
	"github.com/deeppower/deeppower/internal/workload"
)

// CrossoverResult sweeps the offered peak load and records every method's
// power at each level — locating where methods' orderings cross (e.g.
// prediction-based policies excel at low load where slack abounds, while at
// high load every method converges toward the baseline).
type CrossoverResult struct {
	Loads   []float64
	Methods []string
	// PowerW[m][i] is method m's power at Loads[i].
	PowerW map[string][]float64
	// SLAMet[m][i] reports whether p99 stayed within the SLA.
	SLAMet map[string][]bool
}

// CrossoverLoads is the default sweep grid.
var CrossoverLoads = []float64{0.3, 0.5, 0.7, 0.85}

// Crossover evaluates the methods (nil = baseline, Rubik, ReTail, Gemini,
// DeepPower) across constant-rate loads on Xapian.
// Each method is one self-contained pool work unit: it builds its own Setup
// and policy (DeepPower is trained once per unit and reused at every level —
// its training distribution covers the swept range), then sweeps the loads
// serially inside the unit so the policy's state evolution stays identical
// at any worker count.
func Crossover(ctx context.Context, scale Scale, methods []string, workers int) (*CrossoverResult, error) {
	if methods == nil {
		methods = []string{MethodBaseline, MethodRubik, MethodRetail, MethodGemini, MethodDeepPower}
	}
	type sweep struct {
		powerW []float64
		slaMet []bool
	}
	sweeps, err := pool.Map(ctx, methods, workers,
		func(_ context.Context, m string, _ int) (sweep, error) {
			setup, err := NewSetup(app.Xapian, scale)
			if err != nil {
				return sweep{}, err
			}
			cap := setup.Prof.MaxCapacity(setup.Prof.RefFreq, scale.Seed)
			pol, err := setup.BuildPolicy(m)
			if err != nil {
				return sweep{}, fmt.Errorf("exp: crossover %s: %w", m, err)
			}
			var sw sweep
			for _, load := range CrossoverLoads {
				trace := workload.Constant(load*cap, setup.Trace.Period)
				res, err := runOn(setup, pol, trace, scale)
				if err != nil {
					return sweep{}, fmt.Errorf("exp: crossover %s@%v: %w", m, load, err)
				}
				sw.powerW = append(sw.powerW, res.AvgPowerW)
				sw.slaMet = append(sw.slaMet, res.SLAMet)
			}
			return sw, nil
		})
	if err != nil {
		return nil, err
	}
	out := &CrossoverResult{
		Loads:   CrossoverLoads,
		Methods: methods,
		PowerW:  map[string][]float64{},
		SLAMet:  map[string][]bool{},
	}
	for i, m := range methods {
		out.PowerW[m] = sweeps[i].powerW
		out.SLAMet[m] = sweeps[i].slaMet
	}
	return out, nil
}

// Artifacts renders the sweep table.
func (r *CrossoverResult) Artifacts() []Artifact {
	return []Artifact{tableArtifact("crossover_xapian", r.Table())}
}

// Table renders power per (method, load); cells carry a * when the SLA was
// violated at that point.
func (r *CrossoverResult) Table() *Table {
	t := &Table{
		Title:   "Load sweep — " + app.Xapian + " (power W; * = SLA violated)",
		Columns: []string{"method"},
	}
	for _, l := range r.Loads {
		t.Columns = append(t.Columns, fmt.Sprintf("%d%%", int(l*100)))
	}
	for _, m := range r.Methods {
		row := []string{m}
		for i := range r.Loads {
			cell := f2(r.PowerW[m][i])
			if !r.SLAMet[m][i] {
				cell += "*"
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t
}
