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

// Fig2Result is the Relative RMSE heatmap of Fig. 2: cell (i, j) is the RMSE
// of a linear-regression service-time model trained at load level i
// predicting data from load level j, divided by the matched-load RMSE
// error(j, j). Values near 1 on the diagonal and above 1 off it demonstrate
// that static predictors degrade when the load shifts — the paper's case for
// workload-aware power management.
type Fig2Result struct {
	App     string
	Loads   []float64
	RelRMSE [][]float64 // [train][test]
}

// Fig2 runs the motivation experiment for one application (the paper shows
// Masstree and Sphinx). Each load level's profiling run is one pool work
// unit with its own profile and simulation; model fitting needs every
// dataset and stays serial.
func Fig2(ctx context.Context, appName string, scale Scale, workers int) (*Fig2Result, error) {
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
	return &Fig2Result{App: appName, Loads: Fig2Loads, RelRMSE: rel}, nil
}

// Table renders the heatmap.
func (r *Fig2Result) Table() *Table {
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
