package exp

import (
	"context"
	"fmt"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/control"
	"github.com/deeppower/deeppower/internal/pool"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// FreqTraceResult wraps a recorded per-tick frequency trace with request
// lifecycle markers — the raw material behind the paper's Figs. 4, 9, 10
// and 11.
type FreqTraceResult struct {
	App    string
	Method string
	Trace  *server.FreqTrace
}

// Fig4Result is Fig. 4's frequency trace.
type Fig4Result struct{ *FreqTraceResult }

// Fig4 records 2 seconds of millisecond-level frequency under the thread
// controller with DRL-updated parameters (a trained DeepPower policy on
// Xapian), reproducing Fig. 4's sawtooth ramps between request begin/end
// markers. The one recording runs serially; workers does not apply.
func Fig4(ctx context.Context, scale Scale, _ int) (*Fig4Result, error) {
	ft, err := methodFreqTrace(ctx, app.Xapian, MethodDeepPower, scale, 2*sim.Second)
	if err != nil {
		return nil, err
	}
	return &Fig4Result{ft}, nil
}

// Artifacts renders the trace summary and the trace.
func (r *Fig4Result) Artifacts() []Artifact {
	return []Artifact{
		tableArtifact("fig4_controller_trace_summary", r.Summary()),
		csvArtifact("fig4_controller_trace", CSVFreqTrace(r.Trace)),
	}
}

// freqTraceMethods is the method comparison Figs. 9 and 10 record.
var freqTraceMethods = []string{MethodDeepPower, MethodRetail, MethodGemini}

// MethodTracesResult is Fig. 9 or Fig. 10: one frequency trace per method,
// in the order DeepPower, ReTail, Gemini.
type MethodTracesResult struct {
	fig    string // artifact name prefix
	Traces []*FreqTraceResult
}

// Fig9 records the Fig. 4 window for Xapian under each method
// (millisecond-scale latency; the paper contrasts DeepPower's gradual ramps
// with ReTail's and Gemini's coarse per-request selections).
func Fig9(ctx context.Context, scale Scale, workers int) (*MethodTracesResult, error) {
	return methodTraces(ctx, "fig9", app.Xapian, scale, workers, 2*sim.Second)
}

// Fig10 records Sphinx (second-scale latency) under each method.
func Fig10(ctx context.Context, scale Scale, workers int) (*MethodTracesResult, error) {
	return methodTraces(ctx, "fig10", app.Sphinx, scale, workers, 10*sim.Second)
}

// methodTraces fans the per-method recordings out over the pool; each
// method is one self-contained unit.
func methodTraces(ctx context.Context, fig, appName string, scale Scale, workers int, window sim.Time) (*MethodTracesResult, error) {
	traces, err := pool.Map(ctx, freqTraceMethods, workers,
		func(ctx context.Context, method string, _ int) (*FreqTraceResult, error) {
			return methodFreqTrace(ctx, appName, method, scale, window)
		})
	if err != nil {
		return nil, err
	}
	return &MethodTracesResult{fig: fig, Traces: traces}, nil
}

// Artifacts renders each method's trace summary and trace.
func (r *MethodTracesResult) Artifacts() []Artifact {
	var out []Artifact
	for _, ft := range r.Traces {
		out = append(out,
			tableArtifact(r.fig+"_"+ft.Method+"_summary", ft.Summary()),
			csvArtifact(r.fig+"_freq_"+ft.Method, CSVFreqTrace(ft.Trace)))
	}
	return out
}

func methodFreqTrace(ctx context.Context, appName, method string, scale Scale, window sim.Time) (*FreqTraceResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	setup, err := NewSetup(appName, scale)
	if err != nil {
		return nil, err
	}
	pol, err := setup.BuildPolicy(method)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	srv, err := server.New(eng, setup.ServerConfig(scale.Seed+31), pol)
	if err != nil {
		return nil, err
	}
	// Place the window mid-run, past warmup, inside a rising-load phase.
	from := scale.EvalDuration / 3
	ft := srv.EnableFreqTrace(from, from+window)
	if _, err := srv.Run(setup.Trace, from+window+sim.Second); err != nil {
		return nil, err
	}
	return &FreqTraceResult{App: appName, Method: method, Trace: ft}, nil
}

// Fig11Settings are the fixed (BaseFreq, ScalingCoef) pairs of Fig. 11.
var Fig11Settings = []control.Params{
	{BaseFreq: 0.4, ScalingCoef: 1.0},
	{BaseFreq: 0.5, ScalingCoef: 0.75},
	{BaseFreq: 0.6, ScalingCoef: 0.5},
}

// Fig11Result holds one frequency heatmap per fixed parameter setting.
type Fig11Result struct {
	Settings []control.Params
	Traces   []*server.FreqTrace
}

// Fig11 runs Xapian under the bare thread controller with each fixed
// parameter pair and records a 50 ms window of per-core frequencies. Each
// parameter setting is one self-contained pool work unit.
func Fig11(ctx context.Context, scale Scale, workers int) (*Fig11Result, error) {
	traces, err := pool.Map(ctx, Fig11Settings, workers,
		func(_ context.Context, params control.Params, _ int) (*server.FreqTrace, error) {
			setup, err := NewSetup(app.Xapian, scale)
			if err != nil {
				return nil, err
			}
			tc := control.NewThreadController(params)
			eng := sim.NewEngine()
			srv, err := server.New(eng, setup.ServerConfig(scale.Seed+7), tc)
			if err != nil {
				return nil, err
			}
			from := scale.EvalDuration / 3
			ft := srv.EnableFreqTrace(from, from+50*sim.Millisecond)
			if _, err := srv.Run(setup.Trace, from+51*sim.Millisecond+sim.Second); err != nil {
				return nil, err
			}
			return ft, nil
		})
	if err != nil {
		return nil, err
	}
	return &Fig11Result{Settings: Fig11Settings, Traces: traces}, nil
}

// Artifacts renders one trace CSV per parameter setting.
func (r *Fig11Result) Artifacts() []Artifact {
	var out []Artifact
	for i, ft := range r.Traces {
		name := fmt.Sprintf("fig11_b%.2g_s%.2g", r.Settings[i].BaseFreq, r.Settings[i].ScalingCoef)
		out = append(out, csvArtifact(name, CSVFreqTrace(ft)))
	}
	return out
}

// Summary reduces a frequency trace to per-core mean frequency plus marker
// counts, for table rendering.
func (r *FreqTraceResult) Summary() *Table {
	t := &Table{
		Title:   fmt.Sprintf("%s/%s — frequency trace summary", r.App, r.Method),
		Columns: []string{"metric", "value"},
	}
	t.AddRow("samples", f(float64(len(r.Trace.Times))))
	t.AddRow("request begins", f(float64(len(r.Trace.Begins))))
	t.AddRow("request ends", f(float64(len(r.Trace.Ends))))
	var sum float64
	var n int
	for _, row := range r.Trace.Freqs {
		for _, fr := range row {
			sum += fr
			n++
		}
	}
	if n > 0 {
		t.AddRow("mean freq (GHz)", f3(sum/float64(n)))
	}
	return t
}

// CSVFreqTrace renders any FreqTrace as long-form CSV (t, core, ghz).
func CSVFreqTrace(ft *server.FreqTrace) string {
	t := &Table{Columns: []string{"t_s", "core", "freq_ghz"}}
	for i, tm := range ft.Times {
		for c, fr := range ft.Freqs[i] {
			t.AddRow(f(tm.Seconds()), f(float64(c)), f(fr))
		}
	}
	return t.CSV()
}
