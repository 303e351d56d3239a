package exp

import (
	"context"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// Fig8Result is the time-resolved view of DeepPower running Xapian: per
// second, the RPS, socket power, the two controller parameters the agent
// chose, and the average core frequency — the paper's evidence that power
// tracks load and that ScalingCoef rises under high load while BaseFreq
// stays moderate.
type Fig8Result struct {
	App    string
	Rows   []Fig8Row
	Series *server.Series
}

// Fig8Row merges the server series with the agent's action log.
type Fig8Row struct {
	At          sim.Time
	RPS         float64
	PowerW      float64
	BaseFreq    float64
	ScalingCoef float64
	AvgFreqGHz  float64
	QueueLen    int
}

// Fig8 trains DeepPower on the Xapian setup, then evaluates once with
// series and action logging enabled. A single train+evaluate unit: the
// context is checked on entry, not mid-run, and workers does not apply.
func Fig8(ctx context.Context, scale Scale, _ int) (*Fig8Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	setup, err := NewSetup(app.Xapian, scale)
	if err != nil {
		return nil, err
	}
	dp, err := setup.TrainDeepPower()
	if err != nil {
		return nil, err
	}
	dp.Log = nil
	dp.EnableLog()

	cfg := setup.ServerConfig(scale.Seed + 104729)
	cfg.SeriesInterval = sim.Second
	eng := sim.NewEngine()
	srv, err := server.New(eng, cfg, dp)
	if err != nil {
		return nil, err
	}
	res, err := srv.Run(setup.Trace, scale.EvalDuration)
	if err != nil {
		return nil, err
	}

	out := &Fig8Result{App: app.Xapian, Series: res.Series}
	// Join series rows with the nearest preceding action.
	for _, row := range res.Series.Rows {
		fr := Fig8Row{
			At: row.At, RPS: row.RPS, PowerW: row.PowerW,
			AvgFreqGHz: row.AvgFreqGHz, QueueLen: row.QueueLen,
		}
		for _, lp := range dp.Log {
			if lp.At <= row.At {
				fr.BaseFreq = lp.Params.BaseFreq
				fr.ScalingCoef = lp.Params.ScalingCoef
			} else {
				break
			}
		}
		out.Rows = append(out.Rows, fr)
	}
	return out, nil
}

// Artifacts renders the downsampled summary and the full series.
func (r *Fig8Result) Artifacts() []Artifact {
	return []Artifact{
		tableArtifact("fig8_timeseries_summary", r.Table()),
		csvArtifact("fig8_timeseries", r.CSVSeries()),
	}
}

// Table renders a downsampled view.
func (r *Fig8Result) Table() *Table {
	t := &Table{
		Title:   "Fig. 8 — DeepPower over time (" + r.App + ")",
		Columns: []string{"t(s)", "RPS", "power(W)", "BaseFreq", "ScalingCoef", "avgFreq(GHz)", "queue"},
	}
	step := len(r.Rows)/20 + 1
	for i := 0; i < len(r.Rows); i += step {
		row := r.Rows[i]
		t.AddRow(f(row.At.Seconds()), f2(row.RPS), f2(row.PowerW),
			f2(row.BaseFreq), f2(row.ScalingCoef), f2(row.AvgFreqGHz),
			f(float64(row.QueueLen)))
	}
	return t
}

// CSVSeries renders every row.
func (r *Fig8Result) CSVSeries() string {
	t := &Table{Columns: []string{"t_s", "rps", "power_w", "base_freq", "scaling_coef", "avg_freq_ghz", "queue_len"}}
	for _, row := range r.Rows {
		t.AddRow(f(row.At.Seconds()), f(row.RPS), f(row.PowerW),
			f(row.BaseFreq), f(row.ScalingCoef), f(row.AvgFreqGHz),
			f(float64(row.QueueLen)))
	}
	return t.CSV()
}
