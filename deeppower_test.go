package deeppower

import (
	"bytes"
	"strings"
	"testing"

	"github.com/deeppower/deeppower/internal/power"
)

func quickCfg() Config {
	return Config{
		App:           Xapian,
		Workers:       4,
		TrainEpisodes: 4,
		Duration:      20 * Second,
		TracePeriod:   20 * Second,
		Seed:          1,
	}
}

func TestApps(t *testing.T) {
	apps := Apps()
	if len(apps) != 5 {
		t.Fatalf("apps = %v", apps)
	}
	for _, a := range apps {
		p, err := AppByName(a)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != a {
			t.Errorf("AppByName(%q).Name = %q", a, p.Name)
		}
	}
	if _, err := AppByName("redis"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestRunBaseline(t *testing.T) {
	cfg := quickCfg()
	cfg.Method = MethodBaseline
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgPowerW <= 0 || res.Requests == 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.Method != "baseline" {
		t.Errorf("method = %q", res.Method)
	}
	if !strings.Contains(res.String(), "baseline") {
		t.Error("String() missing method")
	}
}

func TestRunFixedAndController(t *testing.T) {
	cfg := quickCfg()
	cfg.Method = "fixed:1.5"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgFreqGHz < 1.45 || res.AvgFreqGHz > 1.55 {
		t.Errorf("fixed:1.5 avg freq = %v", res.AvgFreqGHz)
	}
	cfg.Method = "controller:0.5,0.8"
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"fixed:abc", "fixed:0", "fixed:-1", "fixed:NaN", "fixed:+Inf",
		"controller:1", "controller:a,b", "controller:5,5", "controller:-0.1,0.5", "controller:NaN,0.5", "nope"} {
		cfg.Method = bad
		if _, err := Run(cfg); err == nil {
			t.Errorf("method %q accepted", bad)
		}
	}
}

func TestRunDeepPowerSavesPower(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	cfg := quickCfg()
	cfg.TrainEpisodes = 8
	base, err := Run(withMethod(cfg, MethodBaseline))
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Run(withMethod(cfg, MethodDeepPower))
	if err != nil {
		t.Fatal(err)
	}
	if dp.AvgPowerW >= base.AvgPowerW {
		t.Errorf("DeepPower %vW not below baseline %vW", dp.AvgPowerW, base.AvgPowerW)
	}
}

func withMethod(c Config, m string) Config {
	c.Method = m
	return c
}

func TestCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-method run")
	}
	cfg := quickCfg()
	out, err := Compare(cfg, []string{MethodBaseline, MethodRetail})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("results = %v", out)
	}
	if out[MethodRetail].AvgPowerW >= out[MethodBaseline].AvgPowerW {
		t.Error("retail not below baseline")
	}
}

func TestTrainSaveLoadRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	cfg := quickCfg()
	cfg.TrainEpisodes = 2
	dp, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SavePolicy(dp, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPolicy(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = loaded
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Error("loaded policy produced no completions")
	}
}

func TestDiurnalTrace(t *testing.T) {
	tr := DiurnalTrace(60*Second, 500, 1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if peak := tr.MaxRate(); peak < 499 || peak > 501 {
		t.Errorf("peak = %v, want 500", peak)
	}
	ct := ConstantTrace(100)
	if ct.RateAt(5*Second) != 100 {
		t.Error("constant trace wrong")
	}
}

func TestPeakLoadOverride(t *testing.T) {
	cfg := quickCfg()
	cfg.Method = MethodBaseline
	cfg.PeakLoad = 0.2
	lo, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PeakLoad = 0.8
	hi, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hi.Requests <= lo.Requests {
		t.Errorf("higher peak load served fewer requests: %d vs %d", hi.Requests, lo.Requests)
	}
}

func TestNewServerDirect(t *testing.T) {
	prof, err := AppByName(Masstree)
	if err != nil {
		t.Fatal(err)
	}
	prof.Workers = 2
	eng := NewEngine()
	srv, err := NewServer(eng, ServerConfig{App: prof, Seed: 1}, &maxPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run(ConstantTrace(1000), 2*Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Completions == 0 {
		t.Error("no completions")
	}
}

type maxPolicy struct{}

func (p *maxPolicy) Name() string { return "max" }
func (p *maxPolicy) Init(c Control) {
	for i := 0; i < c.NumCores(); i++ {
		c.SetTurbo(i)
	}
}
func (p *maxPolicy) OnTick(Time)              {}
func (p *maxPolicy) OnArrival(*Request)       {}
func (p *maxPolicy) OnDispatch(*Request, int) {}
func (p *maxPolicy) OnComplete(*Request, int) {}

func TestRunRubik(t *testing.T) {
	cfg := quickCfg()
	cfg.Method = MethodRubik
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "rubik" || res.Requests == 0 {
		t.Fatalf("degenerate rubik result: %+v", res)
	}
}

func TestWithSleepFacade(t *testing.T) {
	inner, err := NewThreadController(Params{BaseFreq: 0.4, ScalingCoef: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	w := WithSleep(inner)
	w.State = C1
	cfg := quickCfg()
	cfg.Method = MethodBaseline
	cfg.Policy = w
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Error("no completions under sleep wrapper")
	}
}

func TestNewDQNPowerFacade(t *testing.T) {
	dq, err := NewDQNPower(DQNPowerConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	cfg.Policy = dq
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Error("no completions under DQN power policy")
	}
}

func TestDefaultPowerModel(t *testing.T) {
	m := DefaultPowerModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m != power.DefaultModel() {
		t.Errorf("DefaultPowerModel = %+v, want power.DefaultModel() %+v", m, power.DefaultModel())
	}
}

// One plan serves both entries: NewFaultInjector realizes it for a server
// built by hand, Config.FaultPlan for a Run — and either way the run's
// fault counters move.
func TestNewFaultInjector(t *testing.T) {
	const dropped = "fault.dropped_transitions"
	plan := FaultPlan{Seed: 3, Actuation: ActuationPlan{DropProb: 0.5}}
	if _, err := NewFaultInjector(FaultPlan{Actuation: ActuationPlan{DropProb: 2}}, 4); err == nil {
		t.Error("DropProb 2 accepted")
	}

	prof, err := AppByName(Masstree)
	if err != nil {
		t.Fatal(err)
	}
	prof.Workers = 4
	inj, err := NewFaultInjector(plan, prof.Workers)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(NewEngine(), ServerConfig{App: prof, Seed: 1, Faults: inj}, &maxPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run(ConstantTrace(1000), 2*Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultStats[dropped] == 0 {
		t.Errorf("ServerConfig.Faults: no governor write dropped at DropProb 0.5: %v", res.FaultStats)
	}

	cfg := quickCfg()
	cfg.Method = "controller:0.5,0.8"
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FaultPlan = &plan
	faulted, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Raw.FaultStats != nil || faulted.Raw.FaultStats[dropped] == 0 {
		t.Errorf("Config.FaultPlan: fault counters clean %v, faulted %v", clean.Raw.FaultStats, faulted.Raw.FaultStats)
	}
}

func TestTrainVectorWorkerCountInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	cfg := quickCfg()
	cfg.TrainEpisodes = 1
	saved := func(workers int) []byte {
		dp, err := TrainVector(cfg, 2, workers)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SavePolicy(dp, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one, four := saved(1), saved(4)
	if len(one) == 0 || !bytes.Equal(one, four) {
		t.Errorf("TrainVector policies differ: workers=1 %d bytes, workers=4 %d bytes", len(one), len(four))
	}
}
