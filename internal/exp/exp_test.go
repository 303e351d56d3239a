package exp

import (
	"context"
	"strings"
	"testing"

	"github.com/deeppower/deeppower/internal/agent"
	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/sim"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "demo", Columns: []string{"a", "bee"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("long-cell", "x,y")
	out := tbl.Render()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "long-cell") {
		t.Errorf("render missing content:\n%s", out)
	}
	csv := tbl.CSV()
	if !strings.Contains(csv, "a,bee") {
		t.Errorf("csv missing header:\n%s", csv)
	}
	if !strings.Contains(csv, `"x,y"`) {
		t.Errorf("csv cell with comma not quoted:\n%s", csv)
	}

	// A row wider than the header renders its extra cells unpadded; a
	// shorter one simply ends early, in text and in CSV.
	tbl.AddRow("w", "x", "extra", "cells")
	tbl.AddRow("short")
	out = tbl.Render()
	if !strings.Contains(out, "w          x    extra  cells\n") {
		t.Errorf("wide row not rendered:\n%q", out)
	}
	if !strings.HasSuffix(out, "short    \n") {
		t.Errorf("short row not rendered:\n%q", out)
	}
	if csv := tbl.CSV(); !strings.HasSuffix(csv, "w,x,extra,cells\nshort\n") {
		t.Errorf("csv of ragged rows:\n%q", csv)
	}
}

func TestFig1(t *testing.T) {
	scale := Quick()
	scale.Samples = 30000
	r, err := Fig1(context.Background(), scale, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Apps) != 4 {
		t.Fatalf("apps = %d, want 4", len(r.Apps))
	}
	// Paper: Moses tail ≈ 8× mean; must be the most skewed of the four.
	if r.TailOverMean[app.Moses] < 4 {
		t.Errorf("Moses tail/mean = %v, want >= 4", r.TailOverMean[app.Moses])
	}
	for name, tm := range r.TailOverMean {
		if name != app.Moses && tm > r.TailOverMean[app.Moses] {
			t.Errorf("%s (%.2f) more skewed than Moses (%.2f)", name, tm, r.TailOverMean[app.Moses])
		}
	}
	// CDFs must be monotone and end at 1.
	for name, cdf := range r.Apps {
		for i := 1; i < len(cdf); i++ {
			if cdf[i].P < cdf[i-1].P || cdf[i].X < cdf[i-1].X {
				t.Fatalf("%s CDF not monotone", name)
			}
		}
		if cdf[len(cdf)-1].P != 1 {
			t.Errorf("%s CDF does not reach 1", name)
		}
	}
	if r.Table().Render() == "" || r.CSVCurves() == "" {
		t.Error("empty rendering")
	}
}

func TestFig2CrossLoadDegradation(t *testing.T) {
	scale := Quick()
	scale.Samples = 1500
	r, err := fig2Heatmap(context.Background(), app.Masstree, scale, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Diagonal is exactly 1 by construction.
	for i := range r.RelRMSE {
		if d := r.RelRMSE[i][i]; d != 1 {
			t.Errorf("diagonal (%d,%d) = %v, want 1", i, i, d)
		}
	}
	// The paper's point: extreme-load mismatch degrades prediction.
	if worst := r.MaxOffDiagonal(); worst < 1.02 {
		t.Errorf("max off-diagonal relative RMSE = %v, want > 1 (cross-load degradation)", worst)
	}
	if r.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestTable2Ordering(t *testing.T) {
	r, err := Table2(500)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"DQN", "DDQN", "DDPG", "SAC"} {
		v := r.InferenceUS[alg]
		if v <= 0 {
			t.Errorf("%s inference time %v not positive", alg, v)
		}
		// Compiled Go on tiny nets: all far below the paper's numbers and
		// far below 1 ms.
		if v > 1000 {
			t.Errorf("%s inference time %v us implausibly slow", alg, v)
		}
	}
	// All four algorithms run comparably tiny networks; their costs must
	// be the same order of magnitude. (The paper's 125–472 µs spread is a
	// Python-interpreter artifact; compiled Go compresses it.)
	lo, hi := r.InferenceUS["DQN"], r.InferenceUS["DQN"]
	for _, v := range r.InferenceUS {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi > 100*lo {
		t.Errorf("inference times spread implausibly: %v", r.InferenceUS)
	}
	if r.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestTable3ShapeMatchesPaper(t *testing.T) {
	r, err := Table3(context.Background(), Quick(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range app.Names() {
		got := r.P99ms[name]
		paper := app.PaperTable3[name]
		if len(got) != 3 {
			t.Fatalf("%s: %d load levels", name, len(got))
		}
		// p99 must grow with load.
		if !(got[0] <= got[1] && got[1] <= got[2]) {
			t.Errorf("%s p99 not monotone in load: %v", name, got)
		}
		// Within 2.5× of the paper at every level (same order of
		// magnitude and shape; we don't chase exact numbers).
		for i := range got {
			lo, hi := paper.P99ms[i]/2.5, paper.P99ms[i]*2.5
			if got[i] < lo || got[i] > hi {
				t.Errorf("%s level %d: p99 %.3f ms outside [%.3f, %.3f] (paper %.3f)",
					name, i, got[i], lo, hi, paper.P99ms[i])
			}
		}
	}
	if r.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestFig5ChangePoint(t *testing.T) {
	r, err := Fig5(context.Background(), Quick(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.X) != len(r.Y) || len(r.X) == 0 {
		t.Fatal("empty curve")
	}
	// Below η: small. Far above η: near 1.
	for i, x := range r.X {
		if x <= 20 && r.Y[i] > 0.1 {
			t.Errorf("scaleFunc(%v) = %v, want ≈0", x, r.Y[i])
		}
		if x >= 900 && r.Y[i] < 0.85 {
			t.Errorf("scaleFunc(%v) = %v, want ≈1", x, r.Y[i])
		}
	}
	if r.Table().Render() == "" || r.CSVCurve() == "" {
		t.Error("empty rendering")
	}
}

func TestFig6TraceShape(t *testing.T) {
	r, err := Fig6(context.Background(), Quick(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.Trace.MaxRate() <= r.Trace.MeanRate() {
		t.Error("trace has no peak structure")
	}
	if r.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestOverheadWithinPaperEnvelope(t *testing.T) {
	r, err := Overhead(context.Background(), Quick(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// §5.5: action generation in "less than a millisecond"; a compiled
	// tiny MLP must satisfy this easily.
	if r.ActionGenUS >= 1000 {
		t.Errorf("action generation %v us, want < 1000", r.ActionGenUS)
	}
	// Parameter update at batch 64 took 13 ms in PyTorch; ours must be
	// same order or faster.
	if r.TrainStepMS > 50 {
		t.Errorf("train step %v ms implausibly slow", r.TrainStepMS)
	}
	// Actor parameter count in the paper's ballpark.
	if r.ActorParams < 1000 || r.ActorParams > 3000 {
		t.Errorf("actor params = %d, want ~2k", r.ActorParams)
	}
	if r.FreqSetUS >= 10 {
		t.Errorf("freq set %v us, want < 10 (paper bound)", r.FreqSetUS)
	}
	if r.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestSetupScalesTraceToApp(t *testing.T) {
	scale := Quick()
	s, err := NewSetup(app.Xapian, scale)
	if err != nil {
		t.Fatal(err)
	}
	cap := s.Prof.MaxCapacity(s.Prof.RefFreq, scale.Seed)
	peak := s.Trace.MaxRate()
	want := PeakLoad[app.Xapian] * cap
	if peak < want*0.99 || peak > want*1.01 {
		t.Errorf("trace peak %v, want %v", peak, want)
	}
	if _, err := NewSetup("unknown", scale); err == nil {
		t.Error("unknown app accepted")
	}
}

// The centerpiece: on a quick scale, DeepPower must beat the baseline on
// power while keeping p99 within the SLA, and the baseline must have the
// highest power of all methods.
func TestFig7QuickXapian(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-method comparison")
	}
	scale := Quick()
	scale.TrainEpisodes = 10
	r, err := Fig7(context.Background(), scale, []string{app.Xapian}, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Results[app.Xapian]
	base := res[MethodBaseline]
	dp := res[MethodDeepPower]
	if dp.AvgPowerW >= base.AvgPowerW {
		t.Errorf("DeepPower power %v not below baseline %v", dp.AvgPowerW, base.AvgPowerW)
	}
	if saving := r.Saving(app.Xapian, MethodDeepPower); saving < 0.08 {
		t.Errorf("DeepPower saving %.1f%%, want >= 8%%", saving*100)
	}
	// The quick scale (4 workers, a 20 s "day") is much harsher than the
	// paper's 20-worker, 360 s setup: allow modest SLA overshoot here.
	// Full-scale runs (cmd/repro, EXPERIMENTS.md) hold the strict bound.
	sla := dp.SLA.Seconds()
	if dp.Latency.P99 > sla*1.6 {
		t.Errorf("DeepPower p99 %v far above SLA %v", dp.Latency.P99, sla)
	}
	for _, m := range []string{MethodRetail, MethodGemini} {
		if res[m].AvgPowerW >= base.AvgPowerW {
			t.Errorf("%s power %v not below baseline %v", m, res[m].AvgPowerW, base.AvgPowerW)
		}
	}
	for _, tbl := range []*Table{r.PowerTable(), r.LatencyTable(), r.QualityTable()} {
		if tbl.Render() == "" {
			t.Error("empty table")
		}
	}
}

func TestFig11FixedParams(t *testing.T) {
	scale := Quick()
	r, err := Fig11(context.Background(), scale, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Traces) != 3 {
		t.Fatalf("traces = %d", len(r.Traces))
	}
	// Higher BaseFreq settings have a higher idle-floor frequency: the
	// minimum frequency seen in setting 3 (base 0.6) must exceed that of
	// setting 1 (base 0.4).
	min1 := minFreq(r.Traces[0])
	min3 := minFreq(r.Traces[2])
	if min3 <= min1 {
		t.Errorf("base 0.6 floor %v not above base 0.4 floor %v", min3, min1)
	}
	if CSVFreqTrace(r.Traces[0]) == "" {
		t.Error("empty CSV")
	}
}

func TestFig4ControllerTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	scale := Quick()
	scale.TrainEpisodes = 2
	r, err := Fig4(context.Background(), scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trace.Times) < 1500 {
		t.Errorf("2 s window has %d samples, want ~2000", len(r.Trace.Times))
	}
	if r.Summary().Render() == "" {
		t.Error("empty summary")
	}
}

func TestFig9MethodsDiffer(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-method traces")
	}
	scale := Quick()
	scale.TrainEpisodes = 8
	retail, err := methodFreqTrace(context.Background(), app.Xapian, MethodRetail, scale, 2*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := methodFreqTrace(context.Background(), app.Xapian, MethodDeepPower, scale, 2*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(retail.Trace.Times) == 0 || len(dp.Trace.Times) == 0 {
		t.Fatal("empty traces")
	}
	// DeepPower's fine-grained ramping changes frequency much more often
	// than ReTail's per-request selection.
	if freqChanges(dp.Trace) == 0 {
		t.Error("DeepPower trace has no frequency changes")
	}
}

func TestTable1Static(t *testing.T) {
	tbl, err := Table1(context.Background(), Quick(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 methods", len(tbl.Rows))
	}
	out := tbl.Render()
	for _, want := range []string{"DeepPower", "ReTail", "Gemini", "Rubik"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %s", want)
		}
	}
}

// TestEvaluateOnWarmMatchesFresh pins the warm-engine contract of
// Setup.EvaluateOn: an engine another evaluation already grew evaluates a
// policy exactly as a fresh engine does. The policy itself is stateful
// across runs (observer normalization persists by design), so the two runs
// use fresh same-seed agents.
func TestEvaluateOnWarmMatchesFresh(t *testing.T) {
	scale := equivScale()
	scale.EvalDuration = 5 * sim.Second
	setup, err := NewSetup(app.Xapian, scale)
	if err != nil {
		t.Fatal(err)
	}
	newAgent := func(seed int64) *agent.DeepPower {
		dp, err := agent.New(agent.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return dp
	}
	want, err := setup.EvaluateOn(sim.NewEngine(), newAgent(24))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	if _, err := setup.EvaluateOn(eng, newAgent(26)); err != nil {
		t.Fatal(err)
	}
	got, err := setup.EvaluateOn(eng, newAgent(24))
	if err != nil {
		t.Fatal(err)
	}
	if got.AvgPowerW != want.AvgPowerW || got.Latency.P99 != want.Latency.P99 ||
		got.Counters != want.Counters {
		t.Fatalf("warm-engine result differs: %+v vs %+v", got, want)
	}
}
