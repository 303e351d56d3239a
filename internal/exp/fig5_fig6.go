package exp

import (
	"context"
	"strings"

	"github.com/deeppower/deeppower/internal/agent"
	"github.com/deeppower/deeppower/internal/workload"
)

// fig5Eta is the change point η of the scaleFunc curve Fig. 5 plots.
const fig5Eta = 100

// Fig5Result is the scaleFunc curve of Fig. 5 (η = 100): near zero below
// the threshold, rising to 1 above it, with the change point near x = η.
type Fig5Result struct {
	X []float64
	Y []float64
}

// Fig5 evaluates scaleFunc over a log-ish grid. It takes the harness
// signature; scale and workers do not apply.
func Fig5(context.Context, Scale, int) (*Fig5Result, error) {
	r := &Fig5Result{}
	for x := 0.0; x <= 10*fig5Eta; x += fig5Eta / 20 {
		r.X = append(r.X, x)
		r.Y = append(r.Y, agent.ScaleFunc(x, fig5Eta))
	}
	return r, nil
}

// Artifacts renders the sampled table and the full curve.
func (r *Fig5Result) Artifacts() []Artifact {
	return []Artifact{
		tableArtifact("fig5_scalefunc", r.Table()),
		csvArtifact("fig5_scalefunc", r.CSVCurve()),
	}
}

// Table renders selected points.
func (r *Fig5Result) Table() *Table {
	t := &Table{
		Title:   "Fig. 5 — scaleFunc(x), η = 100",
		Columns: []string{"x", "scaleFunc"},
	}
	for i := 0; i < len(r.X); i += 20 {
		t.AddRow(f(r.X[i]), f3(r.Y[i]))
	}
	return t
}

// CSVCurve renders the full curve.
func (r *Fig5Result) CSVCurve() string {
	t := &Table{Columns: []string{"x", "scalefunc"}}
	for i := range r.X {
		t.AddRow(f(r.X[i]), f(r.Y[i]))
	}
	return t.CSV()
}

// Fig6Result is the dynamic workload trace of Fig. 6: the diurnal
// e-commerce RPS pattern, downsampled to one period (§5.2).
type Fig6Result struct {
	Trace *workload.Trace
}

// Fig6 synthesizes the evaluation trace. It takes the harness signature;
// workers does not apply.
func Fig6(_ context.Context, scale Scale, _ int) (*Fig6Result, error) {
	cfg := workload.DefaultDiurnal()
	cfg.Period = scale.TracePeriod
	cfg.Buckets = int(scale.TracePeriod.Seconds())
	if cfg.Buckets < 10 {
		cfg.Buckets = 10
	}
	cfg.Seed = scale.Seed
	return &Fig6Result{Trace: workload.Diurnal(cfg)}, nil
}

// Artifacts renders the trace summary and the trace itself.
func (r *Fig6Result) Artifacts() []Artifact {
	var sb strings.Builder
	_ = r.Trace.WriteCSV(&sb) // a strings.Builder never fails a write
	return []Artifact{
		tableArtifact("fig6_workload", r.Table()),
		csvArtifact("fig6_workload", sb.String()),
	}
}

// Table summarizes the trace.
func (r *Fig6Result) Table() *Table {
	t := &Table{
		Title:   "Fig. 6 — dynamic workload (diurnal e-commerce trace)",
		Columns: []string{"metric", "value"},
	}
	t.AddRow("period (s)", f(r.Trace.Period.Seconds()))
	t.AddRow("buckets", f(float64(len(r.Trace.Rates))))
	t.AddRow("mean RPS", f2(r.Trace.MeanRate()))
	t.AddRow("peak RPS", f2(r.Trace.MaxRate()))
	return t
}
