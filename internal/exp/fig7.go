package exp

import (
	"context"
	"fmt"

	"github.com/deeppower/deeppower/internal/agent"
	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/baselines"
	"github.com/deeppower/deeppower/internal/pool"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

// Methods in the paper's Fig. 7 comparison.
const (
	MethodBaseline  = "baseline"
	MethodRetail    = "retail"
	MethodGemini    = "gemini"
	MethodDeepPower = "deeppower"
	// MethodRubik is the related-work statistical comparator (not part of
	// the paper's Fig. 7, available for extended comparisons).
	MethodRubik = "rubik"
)

// Fig7Methods lists the comparison in the paper's order.
var Fig7Methods = []string{MethodBaseline, MethodRetail, MethodGemini, MethodDeepPower}

// PeakLoad is the per-application peak load fraction (of reference-frequency
// capacity) the diurnal trace is scaled to. §5.2: the RPS is multiplied "by
// a factor to make the tail latency close to SLA when running without
// frequency scaling".
var PeakLoad = map[string]float64{
	app.Xapian:   0.85,
	app.Masstree: 0.80,
	app.Moses:    0.75,
	app.Sphinx:   0.85,
	app.ImgDNN:   0.85,
}

// Setup bundles everything a comparison run needs for one application.
type Setup struct {
	Prof  *app.Profile
	Trace *workload.Trace
	Scale Scale
}

// NewSetup builds the application profile and its scaled diurnal trace.
func NewSetup(appName string, scale Scale) (*Setup, error) {
	prof, err := app.ByName(appName)
	if err != nil {
		return nil, err
	}
	if scale.Workers > 0 {
		prof.Workers = scale.Workers
	}
	cfg := workload.DefaultDiurnal()
	cfg.Period = scale.TracePeriod
	cfg.Buckets = int(scale.TracePeriod.Seconds())
	if cfg.Buckets < 10 {
		cfg.Buckets = 10
	}
	cfg.Seed = scale.Seed
	trace := workload.Diurnal(cfg).
		ScaleToPeak(PeakLoad[appName] * prof.MaxCapacity(prof.RefFreq, scale.Seed))
	return &Setup{Prof: prof, Trace: trace, Scale: scale}, nil
}

// ServerConfig returns the per-run server configuration. Applications with
// second-scale latency use a coarser tick, per the paper's note that
// ShortTime "can be changed according to the service time of different
// applications".
func (s *Setup) ServerConfig(seed int64) server.Config {
	cfg := server.Config{
		App:    s.Prof,
		Seed:   seed,
		Warmup: s.Scale.EvalDuration / 10,
	}
	if s.Prof.SLA >= sim.Second {
		cfg.Tick = 10 * sim.Millisecond
	}
	return cfg
}

// BuildPolicy constructs (and, where needed, profiles/trains) one method.
func (s *Setup) BuildPolicy(method string) (server.Policy, error) {
	switch method {
	case MethodBaseline:
		return baselines.NewMaxFreq(), nil
	case MethodRetail:
		samples, err := s.profilingData()
		if err != nil {
			return nil, err
		}
		return baselines.FitRetail(samples)
	case MethodGemini:
		samples, err := s.profilingData()
		if err != nil {
			return nil, err
		}
		return baselines.FitGemini(samples, baselines.GeminiTrainConfig{Seed: s.Scale.Seed})
	case MethodRubik:
		samples, err := s.profilingData()
		if err != nil {
			return nil, err
		}
		return baselines.FitRubik(samples)
	case MethodDeepPower:
		return s.TrainDeepPower()
	}
	return nil, fmt.Errorf("exp: unknown method %q", method)
}

// profilingData collects the offline predictor dataset at a representative
// (mid) load, as the prediction-based baselines require.
func (s *Setup) profilingData() ([]baselines.ServiceSample, error) {
	n := s.Scale.Samples
	if n > 4000 {
		n = 4000
	}
	return baselines.CollectServiceData(s.Prof, 0.5, n, s.Scale.Seed+17)
}

// agentConfig adapts the agent's cadence to the experiment scale: small
// quick-scale traces use a shorter LongTime and more gradient updates per
// step so the agent still sees enough learning signal.
func (s *Setup) agentConfig() agent.Config {
	cfg := agent.Config{Seed: s.Scale.Seed, Train: true}
	if s.Scale.TracePeriod < 60*sim.Second && s.Prof.SLA < sim.Second {
		cfg.LongTime = 250 * sim.Millisecond
		cfg.UpdatesPerStep = 8
		cfg.WarmupSteps = 30
		// Compressed runs see far fewer agent steps than the paper's long
		// training, so exploration anneals faster and less violently.
		cfg.NoiseMu = 0.2
		cfg.NoiseSigma = 0.5
		cfg.NoiseDecay = 0.99
	}
	return cfg
}

// TrainDeepPower trains a fresh DeepPower policy on the setup's trace
// (Algorithm 2; the paper trains on a long workload and tests on a short
// one from the same process).
func (s *Setup) TrainDeepPower() (*agent.DeepPower, error) {
	dp, err := agent.New(s.agentConfig())
	if err != nil {
		return nil, err
	}
	_, err = agent.Train(dp, agent.TrainConfig{
		Episodes:   s.Scale.TrainEpisodes,
		EpisodeLen: s.Trace.Period,
		Server:     s.trainServerConfig(),
		Trace:      s.Trace,
	})
	if err != nil {
		return nil, err
	}
	return dp, nil
}

// TrainDeepPowerVector is TrainDeepPower over envs lockstep environments
// feeding one shared learner (agent.VectorTrainer): the same episode count,
// several times the experience throughput, byte-identical at any worker
// count.
func (s *Setup) TrainDeepPowerVector(envs, workers int) (*agent.DeepPower, error) {
	dp, err := agent.New(s.agentConfig())
	if err != nil {
		return nil, err
	}
	vt, err := agent.NewVectorTrainer(dp, agent.TrainVectorConfig{
		Envs:       envs,
		Workers:    workers,
		Episodes:   s.Scale.TrainEpisodes,
		EpisodeLen: s.Trace.Period,
		Server:     s.trainServerConfig(),
		Trace:      s.Trace,
	})
	if err != nil {
		return nil, err
	}
	if _, err := vt.Train(context.Background()); err != nil {
		return nil, err
	}
	return dp, nil
}

// trainServerConfig is ServerConfig adjusted for training runs. It leaves
// DiscardLatencies alone: the trainers override it to keep the samples
// their exact episode p99 needs.
func (s *Setup) trainServerConfig() server.Config {
	cfg := s.ServerConfig(s.Scale.Seed)
	cfg.Warmup = 0
	return cfg
}

// EvaluateOn runs one policy over the evaluation window with a seed distinct
// from training, on eng after a Reset — back-to-back evaluations (the
// vectrain harness, repeated sweeps) reuse one warm event arena instead of
// growing a fresh engine per policy.
func (s *Setup) EvaluateOn(eng *sim.Engine, pol server.Policy) (*server.Result, error) {
	eng.Reset()
	srv, err := server.New(eng, s.ServerConfig(s.Scale.Seed+104729), pol)
	if err != nil {
		return nil, err
	}
	return srv.Run(s.Trace, s.Scale.EvalDuration)
}

// Fig7Result is the paper's headline comparison: power, power saving, tail
// latency vs SLA, mean/tail ratio and timeout rate for every (app, method).
type Fig7Result struct {
	Apps    []string
	Results map[string]map[string]*server.Result // app → method → result
}

// fig7Unit is one (app, method) cell of the comparison grid.
type fig7Unit struct {
	app    string
	method string
}

// Fig7 runs the full comparison for the given applications (nil = all
// five). Every (app, method) cell is one self-contained pool work unit: it
// builds its own Setup (profile, trace) and its own policy — including any
// profiling or training the method needs — so nothing is shared between
// concurrently running cells and the assembled result is identical at any
// worker count.
func Fig7(ctx context.Context, scale Scale, apps []string, workers int) (*Fig7Result, error) {
	if apps == nil {
		apps = app.Names()
	}
	var units []fig7Unit
	for _, name := range apps {
		for _, method := range Fig7Methods {
			units = append(units, fig7Unit{app: name, method: method})
		}
	}
	results, err := pool.Map(ctx, units, workers, func(_ context.Context, u fig7Unit, _ int) (*server.Result, error) {
		setup, err := NewSetup(u.app, scale)
		if err != nil {
			return nil, err
		}
		pol, err := setup.BuildPolicy(u.method)
		if err != nil {
			return nil, fmt.Errorf("exp: fig7 %s/%s: %w", u.app, u.method, err)
		}
		res, err := setup.EvaluateOn(sim.NewEngine(), pol)
		if err != nil {
			return nil, fmt.Errorf("exp: fig7 %s/%s: %w", u.app, u.method, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	out := &Fig7Result{Apps: apps, Results: map[string]map[string]*server.Result{}}
	for i, u := range units {
		if out.Results[u.app] == nil {
			out.Results[u.app] = map[string]*server.Result{}
		}
		out.Results[u.app][u.method] = results[i]
	}
	return out, nil
}

// Artifacts renders Figs. 7a, 7b and 7c.
func (r *Fig7Result) Artifacts() []Artifact {
	return []Artifact{
		tableArtifact("fig7a_power", r.PowerTable()),
		tableArtifact("fig7b_latency", r.LatencyTable()),
		tableArtifact("fig7c_quality", r.QualityTable()),
	}
}

// Saving returns a method's power saving vs. the baseline for an app.
func (r *Fig7Result) Saving(appName, method string) float64 {
	base := r.Results[appName][MethodBaseline].AvgPowerW
	if base == 0 {
		return 0
	}
	return 1 - r.Results[appName][method].AvgPowerW/base
}

// DeepPowerVsBestSOTA returns how much less power DeepPower uses than the
// better of ReTail/Gemini (positive = DeepPower wins); the paper reports
// 12.7% (Img-dnn) to 28.4% (Moses).
func (r *Fig7Result) DeepPowerVsBestSOTA(appName string) float64 {
	retail := r.Results[appName][MethodRetail].AvgPowerW
	gemini := r.Results[appName][MethodGemini].AvgPowerW
	sota := retail
	if gemini < sota {
		sota = gemini
	}
	if sota == 0 {
		return 0
	}
	return 1 - r.Results[appName][MethodDeepPower].AvgPowerW/sota
}

// PowerTable renders Fig. 7a.
func (r *Fig7Result) PowerTable() *Table {
	t := &Table{
		Title:   "Fig. 7a — power (W) and saving vs baseline",
		Columns: []string{"app", "baseline", "retail", "gemini", "deeppower", "dp saving", "dp vs SOTA"},
	}
	for _, name := range r.Apps {
		t.AddRow(name,
			f2(r.Results[name][MethodBaseline].AvgPowerW),
			f2(r.Results[name][MethodRetail].AvgPowerW),
			f2(r.Results[name][MethodGemini].AvgPowerW),
			f2(r.Results[name][MethodDeepPower].AvgPowerW),
			f2(r.Saving(name, MethodDeepPower)*100)+"%",
			f2(r.DeepPowerVsBestSOTA(name)*100)+"%",
		)
	}
	return t
}

// LatencyTable renders Fig. 7b.
func (r *Fig7Result) LatencyTable() *Table {
	t := &Table{
		Title:   "Fig. 7b — p99 latency (ms) vs SLA",
		Columns: []string{"app", "SLA", "baseline", "retail", "gemini", "deeppower"},
	}
	for _, name := range r.Apps {
		row := []string{name, f(r.Results[name][MethodBaseline].SLA.Milliseconds())}
		for _, m := range Fig7Methods {
			row = append(row, f3(r.Results[name][m].Latency.P99*1000))
		}
		t.AddRow(row...)
	}
	return t
}

// QualityTable renders Fig. 7c (mean/tail ratio and timeout rate).
func (r *Fig7Result) QualityTable() *Table {
	t := &Table{
		Title: "Fig. 7c — mean/tail ratio | timeout %",
		Columns: []string{"app",
			"baseline", "retail", "gemini", "deeppower"},
	}
	for _, name := range r.Apps {
		row := []string{name}
		for _, m := range Fig7Methods {
			res := r.Results[name][m]
			row = append(row, fmt.Sprintf("%s | %s%%",
				f2(res.MeanTailRatio), f3(res.TimeoutRate*100)))
		}
		t.AddRow(row...)
	}
	return t
}
