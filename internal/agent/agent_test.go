package agent

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/ckpt"
	"github.com/deeppower/deeppower/internal/control"
	"github.com/deeppower/deeppower/internal/nn"
	"github.com/deeppower/deeppower/internal/rl"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

func TestScaleFuncShape(t *testing.T) {
	// Fig. 5: ≈0 well below η, 0.5 crossing near η... the paper's change
	// point, and →1 at infinity.
	const eta = 100
	if v := ScaleFunc(1, eta); v > 0.01 {
		t.Errorf("scaleFunc(1) = %v, want ≈0", v)
	}
	if v := ScaleFunc(10, eta); v > 0.05 {
		t.Errorf("scaleFunc(10) = %v, want small", v)
	}
	if v := ScaleFunc(1e6, eta); v < 0.99 {
		t.Errorf("scaleFunc(1e6) = %v, want ≈1", v)
	}
	// Monotone increasing.
	last := -1.0
	for x := 0.0; x < 1000; x += 10 {
		v := ScaleFunc(x, eta)
		if v < last {
			t.Fatalf("scaleFunc not monotone at %v", x)
		}
		last = v
	}
}

func TestScaleFuncBounded(t *testing.T) {
	f := func(raw float64) bool {
		x := math.Abs(raw)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		v := ScaleFunc(x, 100)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestObserverVector(t *testing.T) {
	sla := 8 * sim.Millisecond
	o := NewObserver(sla)
	snap := server.Snapshot{
		QueueLen: 4,
		QueueSLARemaining: []sim.Time{
			sim.Millisecond,     // 12.5% left → counts in 25/50/75
			3 * sim.Millisecond, // 37.5% → 50/75
			5 * sim.Millisecond, // 62.5% → 75
			7 * sim.Millisecond, // 87.5% → none
		},
		CoreSLARemaining: []sim.Time{
			-1 * sim.Millisecond, // already late → all buckets
			6 * sim.Millisecond,  // 75% exactly → not < 75? 6/8 = 0.75
		},
		Counters: server.Counters{Arrivals: 10},
	}
	raw := o.Raw(snap)
	if raw[StateNumReq] != 10 {
		t.Errorf("NumReq = %v", raw[StateNumReq])
	}
	if raw[StateQueueLen] != 4 {
		t.Errorf("QueueLen = %v", raw[StateQueueLen])
	}
	if raw[StateQueue25] != 1 || raw[StateQueue50] != 2 || raw[StateQueue75] != 3 {
		t.Errorf("queue buckets = %v %v %v, want 1 2 3",
			raw[StateQueue25], raw[StateQueue50], raw[StateQueue75])
	}
	if raw[StateCore25] != 1 || raw[StateCore50] != 1 || raw[StateCore75] != 1 {
		t.Errorf("core buckets = %v %v %v, want 1 1 1",
			raw[StateCore25], raw[StateCore50], raw[StateCore75])
	}
}

func TestObserverNormalization(t *testing.T) {
	o := NewObserver(sim.Millisecond)
	s1 := o.Observe(server.Snapshot{QueueLen: 50, Counters: server.Counters{Arrivals: 100}})
	for i, v := range s1 {
		if v < 0 || v > 1 {
			t.Errorf("dim %d = %v outside [0,1]", i, v)
		}
	}
	// Arrival delta: second observation with 150 cumulative = 50 new.
	s2 := o.Observe(server.Snapshot{QueueLen: 25, Counters: server.Counters{Arrivals: 150}})
	if s2[StateNumReq] != 0.5 { // 50 new / running max 100
		t.Errorf("NumReq norm = %v, want 0.5", s2[StateNumReq])
	}
	if s2[StateQueueLen] != 0.5 {
		t.Errorf("QueueLen norm = %v, want 0.5", s2[StateQueueLen])
	}
}

func TestRewardBreakdown(t *testing.T) {
	rw := NewReward(RewardConfig{Beta: 10, Gamma: 1, Eta: 100})
	// Priming call.
	if b := rw.Step(0, 0, 0, sim.Second); b.Total != 0 {
		t.Errorf("priming step reward = %v, want 0", b.Total)
	}
	// 150 J over 1 s at the 300 W reference → R_energy = 0.5.
	b := rw.Step(150, 0, 0, sim.Second)
	if math.Abs(b.Energy-0.5) > 1e-12 {
		t.Errorf("R_energy = %v, want 0.5", b.Energy)
	}
	if b.Timeout != 0 || b.Queue != 0 {
		t.Errorf("unexpected penalties: %+v", b)
	}
	if math.Abs(b.Total+0.5) > 1e-12 {
		t.Errorf("total = %v, want -0.5", b.Total)
	}
}

func TestRewardTimeoutPenalty(t *testing.T) {
	rw := NewReward(RewardConfig{})
	rw.Step(0, 0, 0, sim.Second)
	none := rw.Step(0, 0, 0, sim.Second)
	rw.Reset()
	rw.Step(0, 0, 0, sim.Second)
	some := rw.Step(0, 50, 0, sim.Second)
	if some.Total >= none.Total {
		t.Errorf("timeouts not punished: %v vs %v", some.Total, none.Total)
	}
}

func TestRewardQueueGrowthOnlyPunishedWhenLong(t *testing.T) {
	// Growth below η barely matters; growth of a long queue hurts.
	rw := NewReward(RewardConfig{Eta: 100})
	rw.Step(0, 0, 0, sim.Second)
	short := rw.Step(0, 0, 20, sim.Second) // 0 → 20, still short
	rw.Reset()
	rw.Step(0, 0, 400, sim.Second)
	long := rw.Step(0, 0, 420, sim.Second) // 400 → 420, long queue grows
	if math.Abs(short.Queue) > 1 {
		t.Errorf("short queue growth punished too much: %v", short.Queue)
	}
	if long.Queue < 5*math.Abs(short.Queue) {
		t.Errorf("long queue growth (%v) not much worse than short (%v)",
			long.Queue, short.Queue)
	}
	// Shrinking queues are never punished.
	rw.Reset()
	rw.Step(0, 0, 500, sim.Second)
	shrink := rw.Step(0, 0, 100, sim.Second)
	if shrink.Queue != 0 {
		t.Errorf("queue shrink punished: %v", shrink.Queue)
	}
}

func TestConfigDefaults(t *testing.T) {
	dp, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dp.cfg.LongTime != sim.Second {
		t.Errorf("LongTime = %v", dp.cfg.LongTime)
	}
	if dp.cfg.NoiseMu != 0.3 || dp.cfg.NoiseSigma != 1.0 {
		t.Errorf("noise defaults = %v/%v, want paper's 0.3/1", dp.cfg.NoiseMu, dp.cfg.NoiseSigma)
	}
	if dp.cfg.batchSize != 64 {
		t.Errorf("batch = %d, want 64", dp.cfg.batchSize)
	}
	if dp.Name() != "deeppower" {
		t.Errorf("name = %q", dp.Name())
	}
}

func testTrace() *workload.Trace {
	cfg := workload.DefaultDiurnal()
	cfg.Period = 20 * sim.Second
	cfg.Buckets = 20
	cfg.BaseRPS = 300
	cfg.PeakRPS = 1200
	return workload.Diurnal(cfg)
}

func smallApp() *app.Profile {
	p := app.MustByName(app.Xapian)
	p.Workers = 4
	return p
}

// agentKinds is every agent the package constructs. The loop they run lives
// in one place (core), so each test of the loop takes the agent as an input.
var agentKinds = []struct {
	name   string
	policy string // server.Policy name
	// build constructs the agent from the loop settings the tests vary:
	// Seed, Train, LongTime, WarmupSteps and (continuous only) RecordLog.
	build func(cfg Config) (VectorPolicy, error)
	// vec constructs it with the vector tests' small-but-real configuration.
	vec func(t *testing.T) VectorPolicy
}{
	{"ddpg", "deeppower", buildContinuous(BackendDDPG), func(t *testing.T) VectorPolicy {
		return mustBuild(t)(New(vecTestConfig(20)))
	}},
	{"td3", "deeppower", buildContinuous(BackendTD3), func(t *testing.T) VectorPolicy {
		cfg := vecTestConfig(20)
		cfg.Backend = BackendTD3
		return mustBuild(t)(New(cfg))
	}},
	{"dqn", "dqn-power", buildLattice(false), func(t *testing.T) VectorPolicy {
		return mustBuild(t)(NewDQNPower(vecTestDQNConfig(false)))
	}},
	{"ddqn", "ddqn-power", buildLattice(true), func(t *testing.T) VectorPolicy {
		return mustBuild(t)(NewDQNPower(vecTestDQNConfig(true)))
	}},
}

func buildContinuous(backend BackendName) func(Config) (VectorPolicy, error) {
	return func(cfg Config) (VectorPolicy, error) {
		cfg.Backend = backend
		return New(cfg)
	}
}

func buildLattice(double bool) func(Config) (VectorPolicy, error) {
	return func(cfg Config) (VectorPolicy, error) {
		return NewDQNPower(DQNPowerConfig{
			double: double, Seed: cfg.Seed, Train: cfg.Train,
			loop: Config{LongTime: cfg.LongTime, WarmupSteps: cfg.WarmupSteps},
		})
	}
}

// mustBuild unwraps a constructor's result.
func mustBuild(t *testing.T) func(VectorPolicy, error) VectorPolicy {
	return func(p VectorPolicy, err error) VectorPolicy {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

// TestDivergenceCountEveryAgent: a poisoned transition that reaches replay
// (pushTransition filters them; a faulted restore might not) is rolled back
// and counted by every agent's learner, not only DDPG's — TrainStats reports
// the count through this method.
func TestDivergenceCountEveryAgent(t *testing.T) {
	for _, kind := range agentKinds {
		t.Run(kind.name, func(t *testing.T) {
			c := mustBuild(t)(kind.build(Config{Seed: 4, Train: true})).agentCore()
			action := c.codec.act(actWarmup, nil, nil)
			for i := 0; i < c.cfg.batchSize; i++ {
				c.replay.Push(rl.Transition{
					State: make([]float64, StateDim), Action: action,
					Reward: math.NaN(), NextState: make([]float64, StateDim),
				})
			}
			c.learnStep()
			if got := c.DivergenceCount(); got != 1 {
				t.Errorf("DivergenceCount() = %d after one poisoned update, want 1", got)
			}
			if c.CriticLoss != 0 {
				t.Errorf("rolled-back update reported critic loss %v", c.CriticLoss)
			}
		})
	}
}

func TestDeepPowerRunsAndActs(t *testing.T) {
	for _, kind := range agentKinds {
		t.Run(kind.name, func(t *testing.T) {
			// One step per second for the continuous agents, two for the
			// lattice ones, over ten seconds.
			cfg, wantSteps := Config{Seed: 2, Train: true, RecordLog: true, WarmupSteps: 3, LongTime: sim.Second}, 9
			if kind.policy != "deeppower" {
				cfg.LongTime, wantSteps = 500*sim.Millisecond, 19
			}
			pol := mustBuild(t)(kind.build(cfg))
			c := pol.agentCore()
			eng := sim.NewEngine()
			srv, err := server.New(eng, server.Config{App: smallApp(), Seed: 2}, pol)
			if err != nil {
				t.Fatal(err)
			}
			res, err := srv.Run(testTrace(), 10*sim.Second)
			if err != nil {
				t.Fatal(err)
			}
			if res.Counters.Completions == 0 {
				t.Error("no requests completed")
			}
			if c.step < wantSteps {
				t.Errorf("agent steps = %d, want ~%d (one per %v)", c.step, wantSteps+1, cfg.LongTime)
			}
			if c.Params().Validate() != nil {
				t.Errorf("invalid final params %+v", c.Params())
			}
			if pol.Name() != kind.policy {
				t.Errorf("name = %q, want %q", pol.Name(), kind.policy)
			}
			switch k := c.codec.(type) {
			case *pairCodec:
				// Only Config can ask for the log.
				if len(c.Log) != c.step {
					t.Errorf("log length %d != steps %d", len(c.Log), c.step)
				}
				for _, lp := range c.Log {
					if lp.Params.Validate() != nil {
						t.Errorf("invalid params logged: %+v", lp.Params)
					}
					if len(lp.State) != StateDim {
						t.Errorf("state dim %d", len(lp.State))
					}
				}
			case *lattice:
				// Epsilon must have decayed from its start.
				if k.eps >= epsStart {
					t.Errorf("epsilon never decayed: %v", k.eps)
				}
			}
		})
	}
}

// TestEvaluationDeterministic runs two fresh same-seed agents in inference
// mode: they must use the same energy to the bit.
func TestEvaluationDeterministic(t *testing.T) {
	for _, kind := range agentKinds {
		t.Run(kind.name, func(t *testing.T) {
			run := func() float64 {
				pol := mustBuild(t)(kind.build(Config{Seed: 4}))
				eng := sim.NewEngine()
				srv, err := server.New(eng, server.Config{App: smallApp(), Seed: 4}, pol)
				if err != nil {
					t.Fatal(err)
				}
				res, err := srv.Run(testTrace(), 5*sim.Second)
				if err != nil {
					t.Fatal(err)
				}
				return res.EnergyJ
			}
			if a, b := run(), run(); a != b {
				t.Errorf("evaluation not deterministic: %v vs %v", a, b)
			}
		})
	}
}

func TestTrainImprovesOverRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	dp, err := New(Config{Seed: 3, Train: true, WarmupSteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrainConfig{
		Episodes: 6,
		Server:   server.Config{App: smallApp(), Seed: 3, DiscardLatencies: true},
		Trace:    testTrace(),
	}
	stats, err := Train(dp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 6 {
		t.Fatalf("episodes = %d", len(stats))
	}
	// Training must produce finite numbers and the late policy should not
	// be worse than the early random one by a large margin.
	for _, s := range stats {
		if math.IsNaN(s.Return) || math.IsInf(s.Return, 0) {
			t.Fatalf("non-finite return: %+v", s)
		}
	}
	early := stats[0].Return
	late := stats[len(stats)-1].Return
	if late < early-math.Abs(early) {
		t.Errorf("return degraded badly: early %v late %v", early, late)
	}
	// Evaluation runs deterministically after training.
	res, err := Evaluate(dp, server.Config{App: smallApp(), Seed: 99}, testTrace(), 10*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgPowerW <= 0 {
		t.Error("evaluation produced no power reading")
	}
}

func TestPolicySaveLoadRoundTrip(t *testing.T) {
	for _, kind := range agentKinds {
		t.Run(kind.name, func(t *testing.T) {
			src := mustBuild(t)(kind.build(Config{Seed: 4})).agentCore()
			var buf bytes.Buffer
			if err := src.SavePolicy(&buf); err != nil {
				t.Fatal(err)
			}
			if k, _, err := ckpt.Open(buf.Bytes()); err != nil || k != ckpt.KindPolicy {
				t.Fatalf("export is not a sealed policy container (kind %v, err %v)", k, err)
			}
			dst := mustBuild(t)(kind.build(Config{Seed: 5, Train: true})).agentCore()
			if err := dst.LoadPolicy(&buf); err != nil {
				t.Fatal(err)
			}
			if dst.cfg.Train {
				t.Error("LoadPolicy should switch to inference mode")
			}
			s := make([]float64, StateDim)
			if a1, a2 := src.codec.act(actGreedy, s, nil), dst.codec.act(actGreedy, s, nil); !reflect.DeepEqual(a1, a2) {
				t.Fatalf("loaded policy acts differently: %v vs %v", a1, a2)
			}
			if err := dst.LoadPolicy(bytes.NewReader([]byte("junk"))); err == nil {
				t.Fatal("junk accepted")
			}
		})
	}
}

func TestTrainConfigValidation(t *testing.T) {
	dp, _ := New(Config{Seed: 6})
	if _, err := Train(dp, TrainConfig{}); err == nil {
		t.Error("missing trace accepted")
	}
	if _, err := Train(dp, TrainConfig{Trace: testTrace(), Episodes: -1}); err == nil {
		t.Error("negative episodes accepted")
	}
}

func TestInitialParamsApplied(t *testing.T) {
	want := control.Params{BaseFreq: 0.9, ScalingCoef: 0.1}
	dp, err := New(Config{Seed: 7, initialParams: want})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	if _, err := server.New(eng, server.Config{App: smallApp(), Seed: 7}, dp); err != nil {
		t.Fatal(err)
	}
	// Init is called by Run; call directly for the check.
	// (The params survive until the first agent step.)
	if got := dp.Params(); got != want {
		t.Errorf("params = %+v, want %+v", got, want)
	}
}

func TestFlatModeBypassesController(t *testing.T) {
	dp, err := New(Config{Seed: 8, Flat: true, LongTime: 500 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	srv, err := server.New(eng, server.Config{App: smallApp(), Seed: 8}, dp)
	if err != nil {
		t.Fatal(err)
	}
	ft := srv.EnableFreqTrace(0, 5*sim.Second)
	if _, err := srv.Run(testTrace(), 5*sim.Second); err != nil {
		t.Fatal(err)
	}
	// In flat mode, all cores share one frequency at any sample (no
	// per-request ramping).
	for i, row := range ft.Freqs {
		for c := 1; c < len(row); c++ {
			if row[c] != row[0] {
				t.Fatalf("sample %d: cores at different frequencies in flat mode: %v", i, row)
			}
		}
	}
	// And the frequency only changes at agent steps — far fewer changes
	// than hierarchical control would make under load.
	ch := 0
	for i := 1; i < len(ft.Freqs); i++ {
		for c, f := range ft.Freqs[i] {
			if f != ft.Freqs[i-1][c] {
				ch++
			}
		}
	}
	if ch > 20*len(ft.Freqs[0]) {
		t.Errorf("flat mode changed frequency %d times, expected one per agent step", ch)
	}
}

func TestTD3BackendTrains(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	dp, err := New(Config{Seed: 9, Train: true, Backend: BackendTD3, WarmupSteps: 5})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Train(dp, TrainConfig{
		Episodes: 3,
		Server:   server.Config{App: smallApp(), Seed: 9, DiscardLatencies: true},
		Trace:    testTrace(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("episodes = %d", len(stats))
	}
	for _, s := range stats {
		if math.IsNaN(s.Return) || math.IsInf(s.Return, 0) {
			t.Fatalf("non-finite return %+v", s)
		}
	}
}

func TestUnknownBackendRejected(t *testing.T) {
	if _, err := New(Config{Backend: "ppo"}); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestBackendHonoursLearnerConfig: Config.Backend only picks the variant —
// the two-head topology in Config.DDPG reaches whichever learner runs it
// (the TD3 backend used to drop it).
func TestBackendHonoursLearnerConfig(t *testing.T) {
	for backend := range backends {
		cfg := Config{Seed: 10, Backend: backend}
		cfg.DDPG.TwoHeadActor = true
		dp, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := dp.Agent().Actor.(*nn.TwoHead); !ok {
			t.Errorf("%s: TwoHeadActor built a %T", backend, dp.Agent().Actor)
		}
	}
}

func TestTwoHeadActorThroughAgent(t *testing.T) {
	cfg := Config{Seed: 10}
	cfg.DDPG.TwoHeadActor = true
	dp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := dp.Agent().NumParams(); n < 1500 || n > 2700 {
		t.Errorf("two-head agent params = %d, want ~2k (paper: 2096)", n)
	}
	a := dp.Agent().Act(make([]float64, StateDim))
	if len(a) != ActionDim {
		t.Fatalf("action dim %d", len(a))
	}
}
