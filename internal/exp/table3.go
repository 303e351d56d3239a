package exp

import (
	"context"
	"fmt"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/baselines"
	"github.com/deeppower/deeppower/internal/pool"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

// Table3Loads are the paper's load levels.
var Table3Loads = []float64{0.2, 0.5, 0.7}

// Table3Result reproduces Table 3: per-application SLA and 99th-percentile
// latency at 20/50/70% load, running at the reference (maximum non-turbo)
// frequency without power management.
type Table3Result struct {
	// P99ms maps app name → measured p99 latency (ms) per load level.
	P99ms map[string][]float64
	// SLAms echoes each app's SLA.
	SLAms map[string]float64
}

// table3Unit is one self-contained (app, load) measurement cell.
type table3Unit struct {
	app  string
	load float64
}

// Table3 measures every built-in application at the paper's worker counts
// (scale.Workers is ignored). The (app, load) grid runs on up to workers
// concurrent pool workers, each cell with its own engine, server, and
// profile, so the result is identical at any parallelism.
func Table3(ctx context.Context, scale Scale, workers int) (*Table3Result, error) {
	var units []table3Unit
	for _, name := range app.Names() {
		for _, load := range Table3Loads {
			units = append(units, table3Unit{app: name, load: load})
		}
	}
	p99s, err := pool.Map(ctx, units, workers, func(_ context.Context, u table3Unit, _ int) (float64, error) {
		prof := app.MustByName(u.app)
		rate := u.load * prof.MaxCapacity(prof.RefFreq, scale.Seed)
		// Aim for enough completions to resolve a p99; cap the
		// virtual duration for the second-scale apps.
		dur := sim.Seconds(20000 / rate)
		if dur > 100*sim.Second {
			dur = 100 * sim.Second
		}
		if dur < 10*sim.Second {
			dur = 10 * sim.Second
		}
		eng := sim.NewEngine()
		srv, err := server.New(eng, server.Config{App: prof, Seed: scale.Seed},
			baselines.NewFixedFreq(prof.RefFreq))
		if err != nil {
			return 0, err
		}
		r, err := srv.Run(workload.Constant(rate, sim.Second), dur)
		if err != nil {
			return 0, fmt.Errorf("exp: table3 %s at %v: %w", u.app, u.load, err)
		}
		return r.Latency.P99 * 1000, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Table3Result{P99ms: map[string][]float64{}, SLAms: map[string]float64{}}
	for _, name := range app.Names() {
		res.SLAms[name] = app.MustByName(name).SLA.Milliseconds()
	}
	for i, u := range units {
		res.P99ms[u.app] = append(res.P99ms[u.app], p99s[i])
	}
	return res, nil
}

// Artifacts renders the latency table.
func (r *Table3Result) Artifacts() []Artifact {
	return []Artifact{tableArtifact("table3_tail_latency", r.Table())}
}

// Table renders measured vs. paper numbers.
func (r *Table3Result) Table() *Table {
	t := &Table{
		Title: "Table 3 — p99 latency (ms) at 20/50/70% load, max frequency",
		Columns: []string{"app", "SLA(ms)",
			"20% meas", "20% paper", "50% meas", "50% paper", "70% meas", "70% paper"},
	}
	for _, name := range app.Names() {
		paper := app.PaperTable3[name]
		row := []string{name, f(r.SLAms[name])}
		for i := range Table3Loads {
			row = append(row, f3(r.P99ms[name][i]), f3(paper.P99ms[i]))
		}
		t.AddRow(row...)
	}
	return t
}
