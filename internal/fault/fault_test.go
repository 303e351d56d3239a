package fault

import (
	"math"
	"reflect"
	"testing"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

func testApp(service sim.Time, workers int, sla sim.Time) *app.Profile {
	return &app.Profile{
		Name:    "fixed",
		SLA:     sla,
		Workers: workers,
		RefFreq: 2.1,
		Sampler: constSampler{service: service},
	}
}

type constSampler struct{ service sim.Time }

func (c constSampler) Sample(*sim.RNG) app.Work {
	return app.Work{ServiceRef: c.service, Features: []float64{1}}
}
func (c constSampler) FeatureDim() int { return 1 }

// zigzagPolicy deterministically alternates each core between two ladder
// points every tick, generating plenty of transitions for the actuation
// injector to chew on.
type zigzagPolicy struct {
	server.BasePolicy
	hi bool
}

func (p *zigzagPolicy) Name() string { return "zigzag" }

func (p *zigzagPolicy) OnTick(now sim.Time) {
	f := p.Ctl.Ladder().Min + 0.2
	if p.hi {
		f = p.Ctl.Ladder().Max
	}
	p.hi = !p.hi
	for i := 0; i < p.Ctl.NumCores(); i++ {
		p.Ctl.SetFreq(i, f)
	}
}

func aggressivePlan(seed int64) Plan {
	return Plan{
		Seed: seed,
		Actuation: ActuationPlan{
			ExtraLatency:  sim.Millisecond,
			JitterLatency: 4 * sim.Millisecond,
			DropProb:      0.25,
			StuckProb:     0.01,
			StuckFor:      50 * sim.Millisecond,
		},
		Sensor: SensorPlan{
			EnergyNoiseFrac: 0.05,
			StaleProb:       0.15,
			DropProb:        0.05,
			QueueJitter:     2,
		},
		Cores: CorePlan{
			MTBF:         400 * sim.Millisecond,
			MTTR:         60 * sim.Millisecond,
			ThrottleCap:  1.2,
			ThrottleMTBF: 300 * sim.Millisecond,
			ThrottleMTTR: 40 * sim.Millisecond,
		},
		Load: LoadPlan{SpikeProb: 0.2, SpikeMul: 1.5},
	}
}

func runOnce(t *testing.T, plan Plan) *server.Result {
	t.Helper()
	prof := testApp(800*sim.Microsecond, 3, 5*sim.Millisecond)
	inj, err := NewInjector(plan, prof.Workers)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	s, err := server.New(eng, server.Config{App: prof, Seed: 7, Faults: inj}, &zigzagPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(plan.ApplyToTrace(workload.Constant(1000, sim.Second)), 2*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestInjectionDeterminism is the acceptance criterion for reproducible
// fault injection: two runs from the same Plan seed must produce
// bit-identical Results — every latency sample, counter, and fault stat.
func TestInjectionDeterminism(t *testing.T) {
	a := runOnce(t, aggressivePlan(99))
	b := runOnce(t, aggressivePlan(99))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical plans diverged:\n a=%+v\n b=%+v", a, b)
	}
	var injected uint64
	for _, v := range a.FaultStats {
		injected += v
	}
	if injected == 0 {
		t.Fatal("aggressive plan injected zero faults; determinism test is vacuous")
	}
	c := runOnce(t, aggressivePlan(100))
	if reflect.DeepEqual(a.FaultStats, c.FaultStats) && reflect.DeepEqual(a.Latencies, c.Latencies) {
		t.Fatal("different seeds produced identical runs; injector ignores its seed")
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Actuation: ActuationPlan{DropProb: 1.5}},
		{Actuation: ActuationPlan{ExtraLatency: -sim.Millisecond}},
		{Actuation: ActuationPlan{StuckProb: 0.1}}, // StuckFor missing
		{Sensor: SensorPlan{StaleProb: -0.1}},
		{Cores: CorePlan{MTBF: sim.Second}}, // MTTR missing
		{Cores: CorePlan{ThrottleCap: 1.0}}, // MTBF/MTTR missing
		{Load: LoadPlan{SpikeProb: 2, SpikeMul: 1}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d validated: %+v", i, p)
		}
		if _, err := NewInjector(p, 2); err == nil {
			t.Errorf("bad plan %d built an injector", i)
		}
	}
	if err := (Plan{}).Validate(); err != nil {
		t.Errorf("zero plan rejected: %v", err)
	}
	if _, err := NewInjector(Plan{}, 0); err == nil {
		t.Error("zero core count accepted")
	}
}

func TestApplyToTrace(t *testing.T) {
	tr := workload.Constant(100, sim.Second)
	p := Plan{Seed: 5, Load: LoadPlan{SpikeProb: 0.5, SpikeMul: 2}}
	out := p.ApplyToTrace(tr)
	if out == tr {
		t.Fatal("ApplyToTrace returned the input trace despite an active load plan")
	}
	if tr.Rates[0] != 100 {
		t.Fatal("input trace was modified")
	}
	spikes := 0
	for _, r := range out.Rates {
		switch r {
		case 100:
		case 200:
			spikes++
		default:
			t.Fatalf("unexpected rate %v", r)
		}
	}
	if spikes == 0 {
		t.Error("no spikes with SpikeProb 0.5")
	}
	again := p.ApplyToTrace(tr)
	if !reflect.DeepEqual(out, again) {
		t.Error("ApplyToTrace not deterministic")
	}
	// Disabled plan passes the trace through untouched.
	if (Plan{}).ApplyToTrace(tr) != tr {
		t.Error("zero plan did not pass the trace through")
	}
}

func TestRenewalAlternates(t *testing.T) {
	var flips uint64
	r := newRenewal(sim.NewRNG(1).Stream("t"), 100*sim.Millisecond, 20*sim.Millisecond, &flips)
	down := 0
	for ms := 0; ms < 5000; ms++ {
		if r.isDown(sim.Time(ms) * sim.Millisecond) {
			down++
		}
	}
	if flips == 0 {
		t.Fatal("renewal never failed over 5 s with 100 ms MTBF")
	}
	frac := float64(down) / 5000
	// Expected downtime fraction is MTTR/(MTBF+MTTR) = 1/6 ≈ 0.167.
	if frac < 0.05 || frac > 0.4 {
		t.Errorf("downtime fraction %.3f implausible for MTTR/(MTBF+MTTR)=1/6", frac)
	}
	// Deterministic replay.
	var flips2 uint64
	r2 := newRenewal(sim.NewRNG(1).Stream("t"), 100*sim.Millisecond, 20*sim.Millisecond, &flips2)
	for ms := 0; ms < 5000; ms++ {
		_ = r2.isDown(sim.Time(ms) * sim.Millisecond)
	}
	if flips != flips2 {
		t.Errorf("renewal replay diverged: %d vs %d flips", flips, flips2)
	}
}

// TestStuckInterface checks a wedged DVFS interface swallows subsequent
// writes for its whole window.
func TestStuckInterface(t *testing.T) {
	plan := Plan{Seed: 1, Actuation: ActuationPlan{StuckProb: 1, StuckFor: 10 * sim.Millisecond}}
	inj, err := NewInjector(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, drop := inj.OnFreqSet(0, 0, 1.5); !drop {
		t.Fatal("first write should wedge and drop")
	}
	if _, _, drop := inj.OnFreqSet(5*sim.Millisecond, 0, 1.5); !drop {
		t.Fatal("write inside the stuck window should drop")
	}
	if _, _, drop := inj.OnFreqSet(11*sim.Millisecond, 0, 1.5); !drop {
		// The interface un-wedges, but StuckProb=1 wedges it again; either
		// way the write is swallowed — just assert stats moved.
		_ = drop
	}
	if inj.Counters().StuckWindows == 0 || inj.Counters().StuckDropped < 2 {
		t.Errorf("stuck stats not tracked: %+v", inj.Counters())
	}
}

// TestSnapshotPerturbation checks the sensor injector's field drops, noise,
// and staleness against a crafted snapshot stream.
func TestSnapshotPerturbation(t *testing.T) {
	plan := Plan{Seed: 3, Sensor: SensorPlan{
		EnergyNoiseFrac: 0.1, StaleProb: 0.3, DropProb: 0.3, QueueJitter: 2}}
	inj, err := NewInjector(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	stale, noisy, dropped := 0, 0, 0
	for i := 0; i < 500; i++ {
		now := sim.Time(i) * sim.Millisecond
		in := server.Snapshot{
			Now:               now,
			QueueLen:          10,
			Energy:            float64(i + 1),
			QueueSLARemaining: []sim.Time{sim.Millisecond},
		}
		out := inj.PerturbSnapshot(now, in)
		if out.Now != now {
			stale++
			continue
		}
		if out.Energy != in.Energy {
			noisy++
		}
		if math.IsNaN(out.Energy) || math.IsInf(out.Energy, 0) {
			t.Fatalf("sensor injector produced non-finite energy at %v", now)
		}
		if out.QueueLen < 0 {
			t.Fatalf("negative queue length at %v", now)
		}
		if out.QueueSLARemaining == nil {
			dropped++
		}
	}
	if stale == 0 || noisy == 0 || dropped == 0 {
		t.Errorf("sensor faults not exercised: stale=%d noisy=%d dropped=%d", stale, noisy, dropped)
	}
	st := inj.Counters()
	if st.StaleSnapshots == 0 || st.NoisyReads == 0 || st.DroppedFields == 0 {
		t.Errorf("sensor stats not tracked: %+v", st)
	}
}

// staleReader reads the snapshot feed twice under an always-stale sensor
// plan: once at first (the read the injector keeps), once at second, after
// the queue has drained a little.
type staleReader struct {
	server.BasePolicy
	first, second sim.Time

	kept                 server.Snapshot
	keptQueue, keptCores []sim.Time
	stale                server.Snapshot
	queueAtStale         int
}

func (p *staleReader) Name() string { return "stale-reader" }

func (p *staleReader) OnTick(now sim.Time) {
	switch now {
	case p.first:
		p.kept = p.Ctl.Snapshot()
		p.keptQueue = append([]sim.Time(nil), p.kept.QueueSLARemaining...)
		p.keptCores = append([]sim.Time(nil), p.kept.CoreSLARemaining...)
	case p.second:
		p.queueAtStale = p.Ctl.QueueLen()
		p.stale = p.Ctl.Snapshot()
	}
}

// TestStaleSnapshotOwnsItsFeeds: a stale read repeats the feed values of the
// read it replays, even though the server has since refilled the slices it
// hands out with the shorter queue's budgets. An injector that kept the
// server's slices instead of copying them would replay the new values.
func TestStaleSnapshotOwnsItsFeeds(t *testing.T) {
	inj, err := NewInjector(Plan{Seed: 1, Sensor: SensorPlan{StaleProb: 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 300 req/s for half a second builds a queue on one 10 ms worker; no
	// arrivals after that, so it drains.
	trace := &workload.Trace{Period: sim.Second, Rates: []float64{300, 0}}
	p := &staleReader{first: 450 * sim.Millisecond, second: 700 * sim.Millisecond}
	s, err := server.New(sim.NewEngine(), server.Config{
		App: testApp(10*sim.Millisecond, 1, 20*sim.Millisecond), Seed: 3, Faults: inj}, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(trace, sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(p.keptQueue) == 0 || len(p.keptCores) == 0 {
		t.Fatalf("kept read has empty feeds: queue %d, cores %d", len(p.keptQueue), len(p.keptCores))
	}
	if p.queueAtStale == 0 || p.queueAtStale >= len(p.keptQueue) {
		t.Fatalf("queue at the stale read = %d, want between 1 and %d", p.queueAtStale, len(p.keptQueue)-1)
	}
	if p.stale.Now != p.kept.Now || inj.Counters().StaleSnapshots != 1 {
		t.Fatalf("second read not stale: now %v, stale reads %d", p.stale.Now, inj.Counters().StaleSnapshots)
	}
	if !reflect.DeepEqual(p.stale.QueueSLARemaining, p.keptQueue) {
		t.Errorf("stale queue feed %v, want the kept read's %v", p.stale.QueueSLARemaining, p.keptQueue)
	}
	if !reflect.DeepEqual(p.stale.CoreSLARemaining, p.keptCores) {
		t.Errorf("stale core feed %v, want the kept read's %v", p.stale.CoreSLARemaining, p.keptCores)
	}
}

// TestThrottleCapsFrequency drives a real server with a throttle-only plan
// and checks cores never exceed the cap while a throttle episode is active
// (observable via the throttle stats moving and the run completing).
func TestThrottleCapsFrequency(t *testing.T) {
	plan := Plan{Seed: 2, Cores: CorePlan{
		ThrottleCap:  1.0,
		ThrottleMTBF: 50 * sim.Millisecond,
		ThrottleMTTR: 50 * sim.Millisecond,
	}}
	res := runOnce(t, plan)
	if res.FaultStats["fault.throttle_episodes"] == 0 {
		t.Fatal("no throttle episodes over 2 s with 50 ms MTBF")
	}
	// With ~50% throttle duty cycle at cap 1.0, the time-weighted mean
	// frequency must sit clearly below an unthrottled zigzag run.
	clean := runOnce(t, Plan{Seed: 2})
	if res.AvgFreqGHz >= clean.AvgFreqGHz {
		t.Errorf("throttling did not reduce mean frequency: %v >= %v",
			res.AvgFreqGHz, clean.AvgFreqGHz)
	}
}

// TestOfflineCoresDrain checks requests are conserved when cores fail and
// recover throughout the run.
func TestOfflineCoresDrain(t *testing.T) {
	plan := Plan{Seed: 4, Cores: CorePlan{
		MTBF: 100 * sim.Millisecond,
		MTTR: 50 * sim.Millisecond,
	}}
	res := runOnce(t, plan)
	if res.FaultStats["fault.core_failures"] == 0 {
		t.Fatal("no core failures injected")
	}
	if res.Counters.Completions == 0 {
		t.Fatal("no completions with failing cores")
	}
}
