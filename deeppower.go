// Package deeppower is a full reimplementation of "DeepPower: Deep
// Reinforcement Learning based Power Management for Latency Critical
// Applications in Multi-core Systems" (ICPP 2023).
//
// The package exposes a high-level API to train and evaluate power-management
// policies — DeepPower's hierarchical DRL controller and the ReTail, Gemini
// and no-management baselines — against simulated Tailbench-like
// latency-critical applications on a DVFS-capable multi-core socket.
//
// Quickstart:
//
//	res, err := deeppower.Run(deeppower.Config{App: deeppower.Xapian})
//	fmt.Println(res)
//
// Advanced users can reach the underlying machinery through the exported
// aliases (Profile, Policy, Trace, …) and assemble simulations directly.
package deeppower

import (
	"fmt"
	"io"

	"github.com/deeppower/deeppower/internal/agent"
	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/baselines"
	"github.com/deeppower/deeppower/internal/control"
	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/exp"
	"github.com/deeppower/deeppower/internal/fault"
	"github.com/deeppower/deeppower/internal/power"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

// Built-in application names (the paper's Tailbench suite, Table 3).
const (
	Xapian   = app.Xapian
	Masstree = app.Masstree
	Moses    = app.Moses
	Sphinx   = app.Sphinx
	ImgDNN   = app.ImgDNN
)

// Method names accepted by Config.Method.
const (
	MethodDeepPower = exp.MethodDeepPower
	MethodBaseline  = exp.MethodBaseline
	MethodRetail    = exp.MethodRetail
	MethodGemini    = exp.MethodGemini
	MethodRubik     = exp.MethodRubik
)

// Aliases into the library's building blocks, for users going beyond the
// high-level API.
type (
	// Profile describes a latency-critical application.
	Profile = app.Profile
	// Work is one request's demand and features.
	Work = app.Work
	// Policy is a pluggable power-management strategy.
	Policy = server.Policy
	// Control is the actuation/observation handle policies receive.
	Control = server.Control
	// Request is one in-flight request.
	Request = server.Request
	// ServerConfig configures the simulated server.
	ServerConfig = server.Config
	// ServerResult is a full simulation result.
	ServerResult = server.Result
	// Trace is a request-rate trace.
	Trace = workload.Trace
	// Ladder is a DVFS frequency ladder.
	Ladder = cpu.Ladder
	// Freq is a core frequency in GHz.
	Freq = cpu.Freq
	// PowerModel is the socket power model.
	PowerModel = power.Model
	// Params are the thread controller's two knobs.
	Params = control.Params
	// DeepPowerPolicy is the trained/trainable DRL policy.
	DeepPowerPolicy = agent.DeepPower
	// AgentConfig parameterizes the DRL policy.
	AgentConfig = agent.Config
	// Time is virtual simulation time in nanoseconds.
	Time = sim.Time
	// Scale selects experiment sizes (exp.Quick / exp.Full).
	Scale = exp.Scale
	// CState is a core sleep state (the §6 sleep-state extension).
	CState = cpu.CState
	// SleepWrapper layers C-state management over any DVFS policy.
	SleepWrapper = baselines.SleepWrapper
	// DQNPowerPolicy is the discrete (value-based) DeepPower variant.
	DQNPowerPolicy = agent.DQNPower
	// DQNPowerConfig parameterizes DQNPowerPolicy.
	DQNPowerConfig = agent.DQNPowerConfig
	// FaultPlan is a reproducible fault-injection campaign (see
	// internal/fault): seed-driven DVFS actuation faults, sensor noise,
	// core failures/throttling, and load bursts.
	FaultPlan = fault.Plan
	// ActuationPlan configures DVFS actuation faults (latency, jitter,
	// dropped and stuck governor writes) inside a FaultPlan.
	ActuationPlan = fault.ActuationPlan
	// SensorPlan configures telemetry faults (energy-counter noise, stale
	// or partial snapshots, queue-length jitter) inside a FaultPlan.
	SensorPlan = fault.SensorPlan
	// CorePlan configures per-core failures and thermal throttling inside
	// a FaultPlan.
	CorePlan = fault.CorePlan
	// LoadPlan configures arrival-burst injection inside a FaultPlan.
	LoadPlan = fault.LoadPlan
	// FaultInjector realizes a FaultPlan against a running server; plug it
	// into ServerConfig.Faults for advanced use.
	FaultInjector = fault.Injector
	// GuardedPolicy is the watchdog wrapper that validates inner-policy
	// actions and falls back to a max-frequency safe mode on QoS breach.
	GuardedPolicy = fault.GuardedPolicy
	// GuardConfig tunes the watchdog's health window and backoff.
	GuardConfig = fault.GuardConfig
)

// Sleep states re-exported for convenience.
const (
	C0 = cpu.C0
	C1 = cpu.C1
	C6 = cpu.C6
)

// WithSleep wraps a policy so cores idle longer than the default grace
// period drop into C6 and wake (paying the wake latency) on dispatch.
func WithSleep(inner Policy) *SleepWrapper {
	return baselines.NewSleepWrapper(inner)
}

// WithGuard wraps a policy in the guarded-policy watchdog with default
// settings: invalid actions are rejected, and the system degrades to a
// max-frequency safe mode when the sliding-window timeout rate or tail
// latency breaches its health limits, re-engaging the inner policy with
// exponential backoff once health recovers.
func WithGuard(inner Policy) *GuardedPolicy {
	return fault.WithGuard(inner)
}

// NewFaultInjector realizes a fault plan for a server with numCores worker
// cores. Most callers use Config.FaultPlan instead.
func NewFaultInjector(plan FaultPlan, numCores int) (*FaultInjector, error) {
	return fault.NewInjector(plan, numCores)
}

// NewDQNPower builds the discrete-action DeepPower variant.
func NewDQNPower(cfg DQNPowerConfig) (*DQNPowerPolicy, error) {
	return agent.NewDQNPower(cfg)
}

// Time constants re-exported for convenience.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Apps returns the built-in application names.
func Apps() []string { return app.Names() }

// AppByName returns a fresh profile of a built-in application.
func AppByName(name string) (*Profile, error) { return app.ByName(name) }

// DefaultLadder returns the Xeon-like DVFS ladder used in the evaluation.
func DefaultLadder() Ladder { return cpu.DefaultLadder() }

// DefaultPowerModel returns the calibrated socket power model.
func DefaultPowerModel() PowerModel { return power.DefaultModel() }

// DiurnalTrace synthesizes the diurnal e-commerce workload (Fig. 6) with the
// given period and peak request rate.
func DiurnalTrace(period Time, peakRPS float64, seed int64) *Trace {
	cfg := workload.DefaultDiurnal()
	cfg.Period = period
	cfg.Buckets = int(period.Seconds())
	if cfg.Buckets < 10 {
		cfg.Buckets = 10
	}
	cfg.Seed = seed
	return workload.Diurnal(cfg).ScaleToPeak(peakRPS)
}

// ConstantTrace returns a fixed-rate trace.
func ConstantTrace(rps float64) *Trace {
	return workload.Constant(rps, sim.Second)
}

// Config drives the high-level Run API.
type Config struct {
	// App is a built-in application name (default Xapian).
	App string
	// Workers overrides the worker/core count (0 keeps the paper's).
	Workers int
	// Method selects the power-management policy (default MethodDeepPower).
	// "fixed:<ghz>" pins all cores at a positive frequency, e.g. "fixed:1.5";
	// "controller:<b>,<s>" runs the bare thread controller with fixed
	// parameters, each in [0,1].
	Method string
	// TrainEpisodes is how many trace periods DeepPower trains for
	// (default 10; ignored by other methods).
	TrainEpisodes int
	// Duration is the evaluated virtual time (default 120 s).
	Duration Time
	// TracePeriod is the diurnal period (default 120 s).
	TracePeriod Time
	// PeakLoad scales the trace's crest as a fraction of the app's
	// reference-frequency capacity (default: the per-app evaluation value).
	PeakLoad float64
	// Seed drives all randomness (default 1).
	Seed int64
	// Policy, when non-nil, overrides Method with a caller-built policy.
	Policy Policy
	// FaultPlan, when non-nil, runs the evaluation under the given
	// fault-injection campaign (training still happens on the clean
	// system, as it would in a healthy staging environment).
	FaultPlan *FaultPlan
	// Guard wraps the evaluated policy in the guarded-policy watchdog.
	Guard bool
	// GuardConfig tunes the watchdog when Guard is set (zero = defaults).
	GuardConfig GuardConfig
}

func (c Config) withDefaults() Config {
	if c.App == "" {
		c.App = Xapian
	}
	if c.Method == "" {
		c.Method = MethodDeepPower
	}
	if c.TrainEpisodes == 0 {
		c.TrainEpisodes = 10
	}
	if c.Duration == 0 {
		c.Duration = 120 * sim.Second
	}
	if c.TracePeriod == 0 {
		c.TracePeriod = 120 * sim.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c Config) scale() Scale {
	return Scale{
		Workers:       c.Workers,
		TrainEpisodes: c.TrainEpisodes,
		EvalDuration:  c.Duration,
		TracePeriod:   c.TracePeriod,
		Samples:       20000,
		Seed:          c.Seed,
	}
}

// Result is the high-level outcome of one Run.
type Result struct {
	App    string
	Method string
	// AvgPowerW is the mean socket power over the measured window.
	AvgPowerW float64
	// EnergyJ is the measured socket energy.
	EnergyJ float64
	// MeanLatency and P99Latency summarize end-to-end latency.
	MeanLatency, P99Latency Time
	// SLA echoes the application's requirement; SLAMet is P99 <= SLA.
	SLA    Time
	SLAMet bool
	// TimeoutRate is the fraction of completed requests over SLA.
	TimeoutRate float64
	// TimeoutBudgetMet is the paper's Eq. 2 constraint: timeouts <= 1%.
	TimeoutBudgetMet bool
	// Requests is the number of completed requests.
	Requests uint64
	// AvgFreqGHz is the time-weighted mean core frequency.
	AvgFreqGHz float64
	// Raw gives access to the full simulation result.
	Raw *ServerResult
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: power=%.1fW p99=%v (SLA %v, met=%v) timeout=%.3f%% reqs=%d",
		r.App, r.Method, r.AvgPowerW, r.P99Latency, r.SLA, r.SLAMet,
		r.TimeoutRate*100, r.Requests)
}

// Session runs repeated evaluations on one reused simulation engine: each
// Run resets the engine, recycling its warm event arena and free lists
// instead of growing fresh ones per call. Use it for sweeps and comparisons
// that evaluate many configurations back to back; results are identical to
// the package-level Run.
type Session struct {
	eng *Engine
}

// NewSession returns a session with a fresh engine.
func NewSession() *Session { return &Session{eng: sim.NewEngine()} }

// Run is the package-level Run on the session's warm engine.
func (s *Session) Run(cfg Config) (*Result, error) { return run(s.eng, cfg) }

// Run executes one (application, method) evaluation: it builds the scaled
// diurnal workload, profiles/trains the selected method, evaluates it, and
// returns the summary.
func Run(cfg Config) (*Result, error) { return run(sim.NewEngine(), cfg) }

// run implements Run and Session.Run, evaluating on eng.
func run(eng *Engine, cfg Config) (*Result, error) {
	full := cfg.withDefaults()
	setup, err := exp.NewSetup(full.App, full.scale())
	if err != nil {
		return nil, err
	}
	if full.PeakLoad > 0 {
		setup.Trace = setup.Trace.ScaleToPeak(
			full.PeakLoad * setup.Prof.MaxCapacity(setup.Prof.RefFreq, full.Seed))
	}
	pol := full.Policy
	if pol == nil {
		pol, err = buildMethod(setup, full.Method)
		if err != nil {
			return nil, err
		}
	}
	if full.Guard {
		pol = fault.NewGuardedPolicy(pol, full.GuardConfig)
	}
	var res *ServerResult
	if full.FaultPlan != nil {
		res, err = setup.EvaluateUnderFaults(pol, *full.FaultPlan)
	} else {
		res, err = setup.EvaluateOn(eng, pol)
	}
	if err != nil {
		return nil, err
	}
	return summarize(full.App, pol.Name(), res), nil
}

func buildMethod(setup *exp.Setup, method string) (Policy, error) {
	if pol, ok, err := baselines.ParseMethod(method); ok {
		return pol, err
	}
	return setup.BuildPolicy(method)
}

func summarize(appName, method string, res *ServerResult) *Result {
	return &Result{
		App:              appName,
		Method:           method,
		AvgPowerW:        res.AvgPowerW,
		EnergyJ:          res.EnergyJ,
		MeanLatency:      sim.Seconds(res.Latency.Mean),
		P99Latency:       sim.Seconds(res.Latency.P99),
		SLA:              res.SLA,
		SLAMet:           res.SLAMet,
		TimeoutRate:      res.TimeoutRate,
		TimeoutBudgetMet: res.TimeoutBudgetMet,
		Requests:         res.Counters.Completions,
		AvgFreqGHz:       res.AvgFreqGHz,
		Raw:              res,
	}
}

// Compare evaluates several methods on one application under identical
// workloads and seeds, returning results keyed by method name.
func Compare(cfg Config, methods []string) (map[string]*Result, error) {
	full := cfg.withDefaults()
	if methods == nil {
		methods = []string{MethodBaseline, MethodRetail, MethodGemini, MethodDeepPower}
	}
	out := make(map[string]*Result, len(methods))
	s := NewSession() // evaluations share one warm engine
	for _, m := range methods {
		c := full
		c.Method = m
		c.Policy = nil
		res, err := s.Run(c)
		if err != nil {
			return nil, fmt.Errorf("deeppower: comparing %s: %w", m, err)
		}
		out[m] = res
	}
	return out, nil
}

// Train trains a DeepPower policy for the configured application and
// workload and returns it, ready for SavePolicy or reuse via Config.Policy.
func Train(cfg Config) (*DeepPowerPolicy, error) {
	full := cfg.withDefaults()
	setup, err := exp.NewSetup(full.App, full.scale())
	if err != nil {
		return nil, err
	}
	return setup.TrainDeepPower()
}

// TrainVector trains a DeepPower policy like Train, but on envs simulated
// environments (0 = default 8) advanced in lockstep through one shared
// learner and replay pool (see internal/agent.VectorTrainer). Experience
// enters the replay pool several times faster than single-env training at
// the same episode count; results are byte-identical at any workers value
// (0 = all cores).
func TrainVector(cfg Config, envs, workers int) (*DeepPowerPolicy, error) {
	full := cfg.withDefaults()
	setup, err := exp.NewSetup(full.App, full.scale())
	if err != nil {
		return nil, err
	}
	return setup.TrainDeepPowerVector(envs, workers)
}

// SavePolicy writes a trained policy's actor network.
func SavePolicy(dp *DeepPowerPolicy, w io.Writer) error { return dp.SavePolicy(w) }

// LoadPolicy builds an inference-mode DeepPower policy from a saved actor.
func LoadPolicy(r io.Reader) (*DeepPowerPolicy, error) {
	dp, err := agent.New(agent.Config{})
	if err != nil {
		return nil, err
	}
	if err := dp.LoadPolicy(r); err != nil {
		return nil, err
	}
	return dp, nil
}

// NewThreadController returns the paper's bottom-layer controller
// (Algorithm 1) as a standalone policy with fixed parameters.
func NewThreadController(p Params) (Policy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return control.NewThreadController(p), nil
}

// NewServer assembles a raw simulation for advanced use: callers drive the
// engine directly and may plug in custom policies, ladders, and power
// models. See examples/customapp.
func NewServer(eng *Engine, cfg ServerConfig, pol Policy) (*Server, error) {
	return server.New(eng, cfg, pol)
}

// Engine is the discrete-event simulation engine.
type Engine = sim.Engine

// Server is the simulated latency-critical system.
type Server = server.Server

// NewEngine returns a fresh virtual-time engine.
func NewEngine() *Engine { return sim.NewEngine() }
