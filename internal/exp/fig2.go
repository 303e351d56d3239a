package exp

import (
	"context"
	"fmt"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/baselines"
	"github.com/deeppower/deeppower/internal/pool"
	"github.com/deeppower/deeppower/internal/regress"
	"github.com/deeppower/deeppower/internal/stats"
)

// Fig2Loads are the load levels of the §3.1 motivation experiment.
var Fig2Loads = []float64{0.2, 0.35, 0.5, 0.6, 0.7}

// fig2Apps are the applications Fig. 2 shows.
var fig2Apps = []string{app.Masstree, app.Sphinx}

// Fig2Heatmap is one application's Relative RMSE heatmap of Fig. 2: cell
// (i, j) is the RMSE of a linear-regression service-time model trained at
// load level i predicting data from load level j, divided by the
// matched-load RMSE error(j, j). Values near 1 on the diagonal and above 1
// off it demonstrate that static predictors degrade when the load shifts —
// the paper's case for workload-aware power management.
type Fig2Heatmap struct {
	App     string
	Loads   []float64
	RelRMSE [][]float64 // [train][test]
}

// Fig2Result holds one heatmap per application: Masstree, then Sphinx.
type Fig2Result struct {
	Heatmaps []*Fig2Heatmap
}

// Fig2 runs the motivation experiment for each application in turn.
func Fig2(ctx context.Context, scale Scale, workers int) (*Fig2Result, error) {
	out := &Fig2Result{}
	for _, name := range fig2Apps {
		h, err := fig2Heatmap(ctx, name, scale, workers)
		if err != nil {
			return nil, err
		}
		out.Heatmaps = append(out.Heatmaps, h)
	}
	return out, nil
}

// Artifacts renders one heatmap table per application.
func (r *Fig2Result) Artifacts() []Artifact {
	var out []Artifact
	for _, h := range r.Heatmaps {
		out = append(out, tableArtifact("fig2_rmse_"+h.App, h.Table()))
	}
	return out
}

// fig2Heatmap runs the experiment for one application. Each load level's
// profiling run is one pool work unit with its own profile and simulation;
// model fitting needs every dataset and stays serial.
func fig2Heatmap(ctx context.Context, appName string, scale Scale, workers int) (*Fig2Heatmap, error) {
	n := scale.Samples
	if n > 5000 {
		n = 5000 // profiling runs are simulation-bound; 5k is plenty for LR
	}

	// Collect a dataset at every load level.
	datasets, err := pool.Map(ctx, Fig2Loads, workers,
		func(_ context.Context, load float64, i int) ([]baselines.ServiceSample, error) {
			prof := app.MustByName(appName)
			if scale.Workers > 0 {
				prof.Workers = scale.Workers
			}
			samples, err := baselines.CollectServiceData(prof, load, n, scale.Seed+int64(i)*101)
			if err != nil {
				return nil, fmt.Errorf("exp: fig2 load %v: %w", load, err)
			}
			return samples, nil
		})
	if err != nil {
		return nil, err
	}

	// Fit model_i on data_i; evaluate on every data_j.
	models := make([]*regress.Linear, len(datasets))
	for i, ds := range datasets {
		X, y := baselines.SplitXY(ds)
		m, err := regress.Fit(X, y, 1e-9)
		if err != nil {
			return nil, fmt.Errorf("exp: fig2 fitting at load %v: %w", Fig2Loads[i], err)
		}
		models[i] = m
	}

	abs := make([][]float64, len(models))
	for i, m := range models {
		abs[i] = make([]float64, len(datasets))
		for j, ds := range datasets {
			X, y := baselines.SplitXY(ds)
			abs[i][j] = stats.RMSE(m.PredictAll(X), y)
		}
	}
	rel := make([][]float64, len(models))
	for i := range abs {
		rel[i] = make([]float64, len(datasets))
		for j := range abs[i] {
			rel[i][j] = abs[i][j] / abs[j][j]
		}
	}
	return &Fig2Heatmap{App: appName, Loads: Fig2Loads, RelRMSE: rel}, nil
}

// Table renders the heatmap.
func (r *Fig2Heatmap) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Fig. 2 — relative RMSE heatmap (%s)", r.App),
		Columns: []string{"train\\test"},
	}
	for _, l := range r.Loads {
		t.Columns = append(t.Columns, fmt.Sprintf("%d%%", int(l*100)))
	}
	for i, l := range r.Loads {
		row := []string{fmt.Sprintf("%d%%", int(l*100))}
		for j := range r.Loads {
			row = append(row, f2(r.RelRMSE[i][j]))
		}
		t.AddRow(row...)
	}
	return t
}
