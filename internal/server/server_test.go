package server

import (
	"math"
	"testing"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

// fixedApp returns a deterministic profile: every request takes exactly
// service at the reference frequency, no contention, no memory-bound part.
func fixedApp(service sim.Time, workers int, sla sim.Time) *app.Profile {
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

// maxFreqPolicy pins all cores at the ladder max (not turbo), so service
// time equals ServiceRef exactly for RefFreq = ladder max.
type maxFreqPolicy struct{ BasePolicy }

func (p *maxFreqPolicy) Name() string { return "test-max" }
func (p *maxFreqPolicy) Init(c Control) {
	p.BasePolicy.Init(c)
	for i := 0; i < c.NumCores(); i++ {
		c.SetFreq(i, c.Ladder().Max)
	}
}

func mustServer(t *testing.T, cfg Config, p Policy) (*sim.Engine, *Server) {
	t.Helper()
	eng := sim.NewEngine()
	s, err := New(eng, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return eng, s
}

func TestSingleRequestLatencyExact(t *testing.T) {
	// One request of exactly 2 ms at 2.1 GHz, server at 2.1 GHz:
	// latency must be 2 ms (no queueing).
	prof := fixedApp(2*sim.Millisecond, 1, 10*sim.Millisecond)
	eng, s := mustServer(t, Config{App: prof, Seed: 1}, &maxFreqPolicy{})
	res, err := s.Run(workload.Constant(10, sim.Second), 500*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Completions == 0 {
		t.Fatal("no completions")
	}
	for _, lat := range res.Latencies {
		if lat < 0.002-1e-9 {
			t.Fatalf("latency %v below service time", lat)
		}
	}
	_ = eng
}

func TestLatencyIsServicePlusWait(t *testing.T) {
	// Two requests arrive back-to-back on a single worker: the second
	// must wait for the first.
	prof := fixedApp(10*sim.Millisecond, 1, sim.Second)
	var got []sim.Time
	p := &completionRecorder{latencies: &got}
	eng := sim.NewEngine()
	s, err := New(eng, Config{App: prof, Seed: 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	// Inject exactly 2 arrivals 1 ms apart via a custom trace: rate high
	// for 2ms then zero is hard with Poisson; instead send a burst and
	// check ordering properties on many requests.
	res, err := s.Run(workload.Constant(300, sim.Second), 300*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Completions < 10 {
		t.Fatalf("too few completions: %d", res.Counters.Completions)
	}
	// With a single deterministic worker, completions are spaced >= 10ms.
	for i := 1; i < len(got); i++ {
		if got[i]-got[i-1] < 10*sim.Millisecond-sim.Microsecond {
			t.Fatalf("completions %d,%d spaced %v < service", i-1, i, got[i]-got[i-1])
		}
	}
}

type completionRecorder struct {
	maxFreqPolicy
	latencies *[]sim.Time
}

func (p *completionRecorder) OnComplete(r *Request, core int) {
	*p.latencies = append(*p.latencies, r.Finish)
}

func TestFrequencyHalvesSpeed(t *testing.T) {
	// At half frequency a fully CPU-bound request takes twice as long.
	prof := fixedApp(2*sim.Millisecond, 1, sim.Second)
	pin := func(f cpu.Freq) *Result {
		eng := sim.NewEngine()
		ladder := cpu.DefaultLadder()
		ladder.Min = 0.5
		ladder.Step = 0.05 // so 1.05 GHz (half of 2.1) is on the grid
		s, err := New(eng, Config{App: prof, ladder: ladder, Seed: 1}, &pinPolicy{f: f})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(workload.Constant(20, sim.Second), 2*sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast := pin(2.1)
	slow := pin(1.05)
	if fast.Latency.N == 0 || slow.Latency.N == 0 {
		t.Fatal("no samples")
	}
	ratio := slow.Latency.P50 / fast.Latency.P50
	if math.Abs(ratio-2) > 0.05 {
		t.Errorf("latency ratio at half frequency = %v, want ~2", ratio)
	}
}

type pinPolicy struct {
	BasePolicy
	f cpu.Freq
}

func (p *pinPolicy) Name() string { return "pin" }
func (p *pinPolicy) Init(c Control) {
	p.BasePolicy.Init(c)
	for i := 0; i < c.NumCores(); i++ {
		c.SetFreq(i, p.f)
	}
}

func TestMidRequestFrequencyChange(t *testing.T) {
	// A request runs its first half at max frequency, then the policy
	// drops to half: completion time = t/2 + t. Use a boost policy that
	// switches at a known tick.
	prof := fixedApp(10*sim.Millisecond, 1, sim.Second)
	eng := sim.NewEngine()
	ladder := cpu.DefaultLadder()
	ladder.TransitionLatency = 0
	ladder.Min = 0.5
	p := &switchAtPolicy{switchAt: 5 * sim.Millisecond, to: 1.05}
	s, err := New(eng, Config{App: prof, ladder: ladder, Seed: 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	// One arrival right at t=0 is not possible with Poisson; run with a
	// rate low enough for the first request to be alone, then inspect its
	// latency: 5ms at 2.1 + remaining 5ms-equivalent at 1.05 → 10ms more.
	if _, err := s.Run(workload.Constant(5, sim.Second), 2*sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(p.serviceTimes) == 0 {
		t.Fatal("no samples")
	}
	// Every request's pure service time (excluding queue wait) should be
	// between 10 ms (all at max) and ~19.1 ms (all at 1.1 GHz); requests
	// overlapping the switch take something in between.
	for _, st := range p.serviceTimes {
		if st < 10*sim.Millisecond-sim.Microsecond || st > 20*sim.Millisecond {
			t.Errorf("service time %v outside [10ms, 20ms] envelope", st)
		}
	}
}

type switchAtPolicy struct {
	BasePolicy
	switchAt     sim.Time
	to           cpu.Freq
	serviceTimes []sim.Time
}

func (p *switchAtPolicy) OnComplete(r *Request, core int) {
	p.serviceTimes = append(p.serviceTimes, r.Finish-r.Start)
}

func (p *switchAtPolicy) Name() string { return "switch-at" }
func (p *switchAtPolicy) Init(c Control) {
	p.BasePolicy.Init(c)
	for i := 0; i < c.NumCores(); i++ {
		c.SetFreq(i, c.Ladder().Max)
	}
}
func (p *switchAtPolicy) OnTick(now sim.Time) {
	// Relative to each request's start: drop frequency once the head
	// request has run for switchAt.
	for i := 0; i < p.Ctl.NumCores(); i++ {
		r := p.Ctl.CoreRequest(i)
		if r == nil {
			p.Ctl.SetFreq(i, p.Ctl.Ladder().Max)
		} else if now-r.Start >= p.switchAt {
			p.Ctl.SetFreq(i, p.to)
		}
	}
}

func TestConservationOfRequests(t *testing.T) {
	prof := fixedApp(time1ms(), 4, 100*sim.Millisecond)
	eng, s := mustServer(t, Config{App: prof, Seed: 42}, &maxFreqPolicy{})
	res, err := s.Run(workload.Constant(2000, sim.Second), 2*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	inFlight := uint64(s.BusyCores()) + uint64(s.QueueLen())
	if res.Counters.Arrivals != res.Counters.Completions+inFlight {
		t.Errorf("request conservation violated: arrivals %d != completions %d + in-flight %d",
			res.Counters.Arrivals, res.Counters.Completions, inFlight)
	}
	if res.Counters.Dispatched < res.Counters.Completions {
		t.Error("more completions than dispatches")
	}
	_ = eng
}

func time1ms() sim.Time { return sim.Millisecond }

func TestEnergyPositiveAndPlausible(t *testing.T) {
	prof := fixedApp(sim.Millisecond, 4, 100*sim.Millisecond)
	_, s := mustServer(t, Config{App: prof, Seed: 1}, &maxFreqPolicy{})
	res, err := s.Run(workload.Constant(1000, sim.Second), sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyJ <= 0 {
		t.Fatal("no energy accrued")
	}
	// Power must be at least the uncore + idle floor and at most
	// uncore + all-cores-active-at-turbo.
	m := s.cfg.Power
	minP := m.Uncore + 4*m.CorePower(s.cfg.ladder.Min, false)
	maxP := m.Uncore + 4*m.CorePower(s.cfg.ladder.Turbo, true)
	if res.AvgPowerW < minP || res.AvgPowerW > maxP {
		t.Errorf("avg power %v outside [%v, %v]", res.AvgPowerW, minP, maxP)
	}
}

func TestLowerFrequencyLowerPower(t *testing.T) {
	prof := fixedApp(sim.Millisecond, 4, 100*sim.Millisecond)
	run := func(f cpu.Freq) float64 {
		eng := sim.NewEngine()
		s, err := New(eng, Config{App: prof, Seed: 1}, &pinPolicy{f: f})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(workload.Constant(500, sim.Second), sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgPowerW
	}
	if lo, hi := run(0.8), run(2.1); lo >= hi {
		t.Errorf("power at 0.8GHz (%v) not below 2.1GHz (%v)", lo, hi)
	}
}

func TestTimeoutCounting(t *testing.T) {
	// SLA below the deterministic service time: every request times out.
	prof := fixedApp(5*sim.Millisecond, 2, sim.Millisecond)
	_, s := mustServer(t, Config{App: prof, Seed: 3}, &maxFreqPolicy{})
	res, err := s.Run(workload.Constant(100, sim.Second), sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Completions == 0 {
		t.Fatal("no completions")
	}
	if res.Counters.Timeouts != res.Counters.Completions {
		t.Errorf("timeouts %d != completions %d with impossible SLA",
			res.Counters.Timeouts, res.Counters.Completions)
	}
	if res.TimeoutRate != 1 {
		t.Errorf("TimeoutRate = %v, want 1", res.TimeoutRate)
	}
	if res.SLAMet {
		t.Error("SLAMet true with all requests late")
	}
}

func TestSnapshotReflectsQueue(t *testing.T) {
	prof := fixedApp(50*sim.Millisecond, 1, 20*sim.Millisecond)
	var snap Snapshot
	probe := &snapshotProbe{out: &snap, at: 500 * sim.Millisecond}
	eng := sim.NewEngine()
	s, err := New(eng, Config{App: prof, Seed: 4}, probe)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(workload.Constant(100, sim.Second), sim.Second); err != nil {
		t.Fatal(err)
	}
	if snap.Now == 0 {
		t.Fatal("probe never fired")
	}
	if snap.QueueLen != len(snap.QueueSLARemaining) {
		t.Errorf("queue len %d != remaining entries %d", snap.QueueLen, len(snap.QueueSLARemaining))
	}
	if snap.QueueLen == 0 {
		t.Error("expected overload to build a queue")
	}
	// With a 20ms SLA and an overloaded 50ms/request server, the oldest
	// queued requests must already be past their budget.
	anyNegative := false
	for _, rem := range snap.QueueSLARemaining {
		if rem < 0 {
			anyNegative = true
		}
	}
	if !anyNegative {
		t.Error("no queued request past its SLA under overload")
	}
}

type snapshotProbe struct {
	maxFreqPolicy
	out   *Snapshot
	at    sim.Time
	fired bool
}

func (p *snapshotProbe) OnTick(now sim.Time) {
	if !p.fired && now >= p.at {
		srv := p.Ctl.(*Server)
		*p.out = srv.Snapshot()
		p.fired = true
	}
}

func TestDeterminism(t *testing.T) {
	prof := fixedApp(sim.Millisecond, 2, 10*sim.Millisecond)
	run := func() *Result {
		eng := sim.NewEngine()
		s, err := New(eng, Config{App: prof, Seed: 77}, &maxFreqPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(workload.Constant(800, sim.Second), sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Counters != b.Counters {
		t.Errorf("counters differ: %+v vs %+v", a.Counters, b.Counters)
	}
	if a.EnergyJ != b.EnergyJ {
		t.Errorf("energy differs: %v vs %v", a.EnergyJ, b.EnergyJ)
	}
	if a.Latency.P99 != b.Latency.P99 {
		t.Errorf("p99 differs")
	}
}

func TestSeriesRecording(t *testing.T) {
	prof := fixedApp(sim.Millisecond, 2, 10*sim.Millisecond)
	eng := sim.NewEngine()
	s, err := New(eng, Config{
		App: prof, Seed: 5, SeriesInterval: 100 * sim.Millisecond,
	}, &maxFreqPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(workload.Constant(500, sim.Second), sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Series == nil || len(res.Series.Rows) < 9 {
		t.Fatalf("series rows = %v", res.Series)
	}
	var rpsSum float64
	for _, row := range res.Series.Rows {
		if row.PowerW <= 0 {
			t.Errorf("row at %v has power %v", row.At, row.PowerW)
		}
		rpsSum += row.RPS
	}
	if mean := rpsSum / float64(len(res.Series.Rows)); math.Abs(mean-500) > 100 {
		t.Errorf("series mean RPS %v, want ~500", mean)
	}
}

func TestFreqTraceRecording(t *testing.T) {
	prof := fixedApp(5*sim.Millisecond, 2, 50*sim.Millisecond)
	eng := sim.NewEngine()
	s, err := New(eng, Config{App: prof, Seed: 6}, &maxFreqPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	ft := s.EnableFreqTrace(100*sim.Millisecond, 300*sim.Millisecond)
	if _, err := s.Run(workload.Constant(300, sim.Second), sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(ft.Times) == 0 {
		t.Fatal("no trace samples")
	}
	// ~200 ticks in the window at 1ms.
	if len(ft.Times) < 190 || len(ft.Times) > 210 {
		t.Errorf("trace samples = %d, want ~200", len(ft.Times))
	}
	for _, tm := range ft.Times {
		if tm < ft.From || tm > ft.To {
			t.Fatalf("sample at %v outside window", tm)
		}
	}
	if len(ft.Begins) == 0 || len(ft.Ends) == 0 {
		t.Error("no request markers in window")
	}
}

func TestWarmupExcludesEarlyStats(t *testing.T) {
	prof := fixedApp(sim.Millisecond, 2, 10*sim.Millisecond)
	eng := sim.NewEngine()
	s, err := New(eng, Config{App: prof, Seed: 7, Warmup: 500 * sim.Millisecond}, &maxFreqPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(workload.Constant(200, sim.Second), sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Retained latencies should be roughly half the completions.
	if got, all := len(res.Latencies), res.Counters.Completions; float64(got) > 0.7*float64(all) {
		t.Errorf("warmup not excluded: %d retained of %d", got, all)
	}
	if res.AvgPowerW <= 0 {
		t.Error("post-warmup power not positive")
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(eng, Config{}, &maxFreqPolicy{}); err == nil {
		t.Error("nil app accepted")
	}
	prof := fixedApp(sim.Millisecond, 1, sim.Millisecond)
	if _, err := New(eng, Config{App: prof}, nil); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := New(eng, Config{App: prof, Tick: -1}, &maxFreqPolicy{}); err == nil {
		t.Error("negative tick accepted")
	}
	s, err := New(eng, Config{App: prof}, &maxFreqPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(workload.Constant(1, sim.Second), 0); err == nil {
		t.Error("zero duration accepted")
	}
	bad := &workload.Trace{Period: 0}
	if _, err := s.Run(bad, sim.Second); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestFIFOOrder(t *testing.T) {
	var q fifo
	for i := 0; i < 100; i++ {
		q.Push(&Request{ID: uint64(i)})
	}
	for i := 0; i < 100; i++ {
		r := q.Pop()
		if r == nil || r.ID != uint64(i) {
			t.Fatalf("pop %d returned %v", i, r)
		}
	}
	if q.Pop() != nil {
		t.Error("empty pop should be nil")
	}
}

func TestFIFOSteadyStateBounded(t *testing.T) {
	var q fifo
	for round := 0; round < 10; round++ {
		for i := 0; i < 200; i++ {
			q.Push(&Request{ID: uint64(round*200 + i)})
		}
		for i := 0; i < 200; i++ {
			if q.Pop() == nil {
				t.Fatal("unexpected empty")
			}
		}
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d", q.Len())
	}
	// The ring is sized by the high-water mark (200 → 256), not by the
	// total number of requests that flowed through.
	if cap(q.buf) > 256 {
		t.Errorf("ring grew beyond the high-water mark: cap %d", cap(q.buf))
	}
}

func TestFIFOPeek(t *testing.T) {
	var q fifo
	q.Push(&Request{ID: 1})
	q.Push(&Request{ID: 2})
	if q.Peek(0).ID != 1 || q.Peek(1).ID != 2 {
		t.Error("peek order wrong")
	}
	if q.Peek(2) != nil || q.Peek(-1) != nil {
		t.Error("out-of-range peek should be nil")
	}
}

func TestRequestAccessors(t *testing.T) {
	r := &Request{ID: 1, Arrive: 100, Start: -1, Finish: -1, CoreID: -1}
	if r.Done() {
		t.Error("fresh request should not be done")
	}
	r.Start = 150
	r.Finish = 250
	if r.Latency() != 150 {
		t.Errorf("latency %v", r.Latency())
	}
	if r.SLARemaining(200, 300) != 200 {
		t.Errorf("SLARemaining = %v", r.SLARemaining(200, 300))
	}
}

func TestRequestPanicsBeforeDone(t *testing.T) {
	r := &Request{Start: -1, Finish: -1}
	defer func() {
		if recover() == nil {
			t.Error("Latency on unfinished request did not panic")
		}
	}()
	r.Latency()
}

func BenchmarkServerSecond(b *testing.B) {
	prof := fixedApp(sim.Millisecond, 8, 10*sim.Millisecond)
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		s, err := New(eng, Config{App: prof, Seed: 1, DiscardLatencies: true}, &maxFreqPolicy{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(workload.Constant(4000, sim.Second), sim.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDiscardLatenciesStillReportsTail(t *testing.T) {
	prof := fixedApp(sim.Millisecond, 2, 10*sim.Millisecond)
	run := func(discard bool) *Result {
		eng := sim.NewEngine()
		s, err := New(eng, Config{App: prof, Seed: 9, DiscardLatencies: discard}, &maxFreqPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(workload.Constant(800, sim.Second), 2*sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := run(false)
	lean := run(true)
	if len(lean.Latencies) != 0 {
		t.Error("DiscardLatencies retained samples")
	}
	if lean.Latency.N != full.Latency.N {
		t.Errorf("streamed N %d != retained N %d", lean.Latency.N, full.Latency.N)
	}
	if math.Abs(lean.Latency.Mean-full.Latency.Mean) > 1e-9 {
		t.Errorf("streamed mean %v != exact %v", lean.Latency.Mean, full.Latency.Mean)
	}
	if rel := math.Abs(lean.Latency.P99-full.Latency.P99) / full.Latency.P99; rel > 0.15 {
		t.Errorf("streamed p99 %v vs exact %v (rel %.3f)", lean.Latency.P99, full.Latency.P99, rel)
	}
}

func TestTimeoutBudgetEq2(t *testing.T) {
	// Impossible SLA: every request late → budget blown.
	prof := fixedApp(5*sim.Millisecond, 2, sim.Millisecond)
	_, s := mustServer(t, Config{App: prof, Seed: 13}, &maxFreqPolicy{})
	res, err := s.Run(workload.Constant(100, sim.Second), sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeoutBudgetMet {
		t.Error("Eq. 2 budget reported met with 100% timeouts")
	}
	// Generous SLA: budget met.
	prof2 := fixedApp(sim.Millisecond, 2, sim.Second)
	_, s2 := mustServer(t, Config{App: prof2, Seed: 13}, &maxFreqPolicy{})
	res2, err := s2.Run(workload.Constant(100, sim.Second), sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.TimeoutBudgetMet {
		t.Error("Eq. 2 budget reported violated with zero timeouts")
	}
}
