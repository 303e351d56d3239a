package baselines

import (
	"math"
	"testing"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/stats"
	"github.com/deeppower/deeppower/internal/workload"
)

func smallXapian() *app.Profile {
	p := app.MustByName(app.Xapian)
	p.Workers = 4
	return p
}

func runPolicy(t *testing.T, prof *app.Profile, pol server.Policy, loadFrac float64, dur sim.Time) *server.Result {
	t.Helper()
	rate := loadFrac * prof.MaxCapacity(prof.RefFreq, 1)
	eng := sim.NewEngine()
	srv, err := server.New(eng, server.Config{App: prof, Seed: 21}, pol)
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run(workload.Constant(rate, sim.Second), dur)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMaxFreqRunsAtTurbo(t *testing.T) {
	prof := smallXapian()
	res := runPolicy(t, prof, NewMaxFreq(), 0.3, 2*sim.Second)
	if res.Policy != "baseline" {
		t.Errorf("name = %q", res.Policy)
	}
	if math.Abs(res.AvgFreqGHz-2.8) > 0.01 {
		t.Errorf("avg freq %v, want turbo 2.8", res.AvgFreqGHz)
	}
	if res.TimeoutRate > 0.01 {
		t.Errorf("baseline at 30%% load should rarely time out, got %v", res.TimeoutRate)
	}
}

func TestFixedFreqPins(t *testing.T) {
	prof := smallXapian()
	res := runPolicy(t, prof, NewFixedFreq(1.2), 0.2, 2*sim.Second)
	if math.Abs(res.AvgFreqGHz-1.2) > 0.01 {
		t.Errorf("avg freq %v, want 1.2", res.AvgFreqGHz)
	}
	if res.Policy != "fixed-1.2GHz" {
		t.Errorf("name = %q", res.Policy)
	}
}

func TestParseMethod(t *testing.T) {
	for _, tc := range []struct {
		method string
		ok     bool   // a parameterized method form
		name   string // policy name, "" when the method is rejected
	}{
		{"fixed:1.5", true, "fixed-1.5GHz"},
		{"fixed:0.8", true, "fixed-0.8GHz"},
		{"controller:0.4,0.5", true, "controller(b=0.4,s=0.5)"},
		{"controller:0,1", true, "controller(b=0,s=1)"},
		{"fixed:0", true, ""},
		{"fixed:-1", true, ""},
		{"fixed:NaN", true, ""},
		{"fixed:+Inf", true, ""},
		{"fixed:abc", true, ""},
		{"fixed", true, ""},
		{"controller:5,5", true, ""},
		{"controller:0.5,-0.1", true, ""},
		{"controller:NaN,0.5", true, ""},
		{"controller:1", true, ""},
		{"controller:a,b", true, ""},
		{"controller:0.1,0.2,0.3", true, ""},
		{"maxfreq", false, ""},
		{"deeppower", false, ""},
	} {
		pol, ok, err := ParseMethod(tc.method)
		if ok != tc.ok {
			t.Errorf("%q: ok = %v, want %v", tc.method, ok, tc.ok)
			continue
		}
		switch {
		case !ok && (pol != nil || err != nil):
			t.Errorf("%q: not a parameterized method, got %v, %v", tc.method, pol, err)
		case ok && tc.name == "" && err == nil:
			t.Errorf("%q accepted as %s", tc.method, pol.Name())
		case tc.name != "" && err != nil:
			t.Errorf("%q rejected: %v", tc.method, err)
		case tc.name != "" && pol.Name() != tc.name:
			t.Errorf("%q built %q, want %q", tc.method, pol.Name(), tc.name)
		}
	}
}

func TestCollectServiceData(t *testing.T) {
	prof := smallXapian()
	samples, err := CollectServiceData(prof, 0.3, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 200 {
		t.Fatalf("only %d samples", len(samples))
	}
	for _, s := range samples {
		if s.Service <= 0 {
			t.Fatal("non-positive service time")
		}
		if len(s.Features) != prof.Sampler.FeatureDim() {
			t.Fatal("feature width mismatch")
		}
	}
	X, y := SplitXY(samples)
	if len(X) != len(samples) || len(y) != len(samples) {
		t.Error("SplitXY size mismatch")
	}
}

func TestCollectServiceDataErrors(t *testing.T) {
	prof := smallXapian()
	if _, err := CollectServiceData(prof, 0, 10, 1); err == nil {
		t.Error("zero load accepted")
	}
	if _, err := CollectServiceData(prof, 0.5, 0, 1); err == nil {
		t.Error("zero samples accepted")
	}
}

// Predictors must actually predict: correlation between predicted and true
// service times on held-out data should be strong at the profiling load.
func TestPredictorsLearnServiceTime(t *testing.T) {
	prof := smallXapian()
	train, err := CollectServiceData(prof, 0.4, 800, 6)
	if err != nil {
		t.Fatal(err)
	}
	test, err := CollectServiceData(prof, 0.4, 300, 7)
	if err != nil {
		t.Fatal(err)
	}

	retail, err := FitRetail(train)
	if err != nil {
		t.Fatal(err)
	}
	gemini, err := FitGemini(train, GeminiTrainConfig{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}

	for name, predict := range map[string]func([]float64) sim.Time{
		"retail": retail.PredictRef,
		"gemini": gemini.PredictRef,
	} {
		var preds, truths []float64
		for _, s := range test {
			preds = append(preds, predict(s.Features).Seconds())
			truths = append(truths, s.Service)
		}
		rmse := stats.RMSE(preds, truths)
		// Predicting the mean would give RMSE = std; the model must beat it.
		if std := stats.StdDev(truths); rmse > 0.9*std {
			t.Errorf("%s RMSE %.4g not better than mean-predictor %.4g", name, rmse, std)
		}
	}
}

func TestRetailSavesPowerMeetsSLA(t *testing.T) {
	prof := smallXapian()
	samples, err := CollectServiceData(prof, 0.4, 600, 8)
	if err != nil {
		t.Fatal(err)
	}
	retail, err := FitRetail(samples)
	if err != nil {
		t.Fatal(err)
	}
	base := runPolicy(t, prof, NewMaxFreq(), 0.4, 4*sim.Second)
	res := runPolicy(t, prof, retail, 0.4, 4*sim.Second)
	if res.AvgPowerW >= base.AvgPowerW {
		t.Errorf("ReTail power %v not below baseline %v", res.AvgPowerW, base.AvgPowerW)
	}
	if res.Latency.P99 > prof.SLA.Seconds()*1.3 {
		t.Errorf("ReTail p99 %v far above SLA %v", res.Latency.P99, prof.SLA.Seconds())
	}
}

func TestGeminiSavesPowerMeetsSLA(t *testing.T) {
	prof := smallXapian()
	samples, err := CollectServiceData(prof, 0.4, 600, 9)
	if err != nil {
		t.Fatal(err)
	}
	gemini, err := FitGemini(samples, GeminiTrainConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	base := runPolicy(t, prof, NewMaxFreq(), 0.4, 4*sim.Second)
	res := runPolicy(t, prof, gemini, 0.4, 4*sim.Second)
	if res.AvgPowerW >= base.AvgPowerW {
		t.Errorf("Gemini power %v not below baseline %v", res.AvgPowerW, base.AvgPowerW)
	}
	if res.Latency.P99 > prof.SLA.Seconds()*1.3 {
		t.Errorf("Gemini p99 %v far above SLA %v", res.Latency.P99, prof.SLA.Seconds())
	}
}

func TestFitGeminiErrors(t *testing.T) {
	if _, err := FitGemini(nil, GeminiTrainConfig{}); err == nil {
		t.Error("empty samples accepted")
	}
}

func TestFitRetailErrors(t *testing.T) {
	if _, err := FitRetail(nil); err == nil {
		t.Error("empty samples accepted")
	}
}

func TestRubikOverestimatesButSafe(t *testing.T) {
	prof := smallXapian()
	samples, err := CollectServiceData(prof, 0.4, 600, 11)
	if err != nil {
		t.Fatal(err)
	}
	rubik, err := FitRubik(samples)
	if err != nil {
		t.Fatal(err)
	}
	// The tail estimate must exceed the mean observed service by a lot
	// (§6: "this prediction is overestimated").
	var mean float64
	for _, s := range samples {
		mean += s.Service / float64(len(samples))
	}
	if rubik.TailPred.Seconds() < 1.5*mean {
		t.Errorf("tail prediction %v not well above mean %v", rubik.TailPred.Seconds(), mean)
	}
	base := runPolicy(t, prof, NewMaxFreq(), 0.4, 4*sim.Second)
	res := runPolicy(t, prof, rubik, 0.4, 4*sim.Second)
	if res.AvgPowerW >= base.AvgPowerW {
		t.Errorf("Rubik power %v not below baseline %v", res.AvgPowerW, base.AvgPowerW)
	}
	if res.Latency.P99 > prof.SLA.Seconds()*1.3 {
		t.Errorf("Rubik p99 %v far above SLA", res.Latency.P99)
	}
}

func TestRubikCostlierThanRetail(t *testing.T) {
	// Feature-free tail planning must burn more power than per-request
	// prediction at the same load — the reason ReTail/Gemini exist.
	prof := smallXapian()
	samples, err := CollectServiceData(prof, 0.4, 600, 12)
	if err != nil {
		t.Fatal(err)
	}
	rubik, err := FitRubik(samples)
	if err != nil {
		t.Fatal(err)
	}
	retail, err := FitRetail(samples)
	if err != nil {
		t.Fatal(err)
	}
	rb := runPolicy(t, prof, rubik, 0.5, 4*sim.Second)
	rt := runPolicy(t, prof, retail, 0.5, 4*sim.Second)
	if rb.AvgPowerW <= rt.AvgPowerW {
		t.Errorf("Rubik power %v not above ReTail %v", rb.AvgPowerW, rt.AvgPowerW)
	}
}

func TestFitRubikErrors(t *testing.T) {
	if _, err := FitRubik(nil); err == nil {
		t.Error("empty samples accepted")
	}
}

// TestDispatchPoliciesZeroAllocs: the three per-request comparison policies
// decide over the ladder's levels on every dispatch; with the levels built
// once in Init, a steady-state 1 ms step under each of them — arrivals, their
// OnDispatch decisions, completions, the tick — allocates nothing.
func TestDispatchPoliciesZeroAllocs(t *testing.T) {
	prof := smallXapian()
	samples, err := CollectServiceData(prof, 0.4, 600, 8)
	if err != nil {
		t.Fatal(err)
	}
	retail, err := FitRetail(samples)
	if err != nil {
		t.Fatal(err)
	}
	gemini, err := FitGemini(samples, GeminiTrainConfig{Seed: 9, Epochs: 5})
	if err != nil {
		t.Fatal(err)
	}
	rubik, err := FitRubik(samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []server.Policy{retail, gemini, rubik} {
		eng := sim.NewEngine()
		srv, err := server.New(eng, server.Config{App: prof, Seed: 21, DiscardLatencies: true}, pol)
		if err != nil {
			t.Fatal(err)
		}
		rate := 0.5 * prof.MaxCapacity(prof.RefFreq, 1)
		if err := srv.Begin(workload.Constant(rate, 60*sim.Second), 60*sim.Second); err != nil {
			t.Fatal(err)
		}
		at := 2 * sim.Second
		eng.RunUntil(at)
		before := srv.Counters().Dispatched
		allocs := testing.AllocsPerRun(200, func() {
			at += sim.Millisecond
			eng.RunUntil(at)
		})
		if n := srv.Counters().Dispatched - before; n < 100 {
			t.Fatalf("%s: only %d dispatches measured", pol.Name(), n)
		}
		if allocs != 0 {
			t.Errorf("%s: steady-state step allocated %.2f times per 1 ms, want 0", pol.Name(), allocs)
		}
	}
}
