package server

import (
	"fmt"
	"math/bits"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/power"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/stats"
	"github.com/deeppower/deeppower/internal/workload"
)

// Config parameterizes a server simulation.
type Config struct {
	// App is the latency-critical application profile. A profile with a DAG
	// makes every arrival a stage graph: stages enter the FIFO when their
	// predecessors complete and the SLA applies end-to-end.
	App *app.Profile
	// Topology, when non-nil, builds heterogeneous cores: per-class
	// ladders, speed factors, and power-curve scaling. It overrides the
	// profile's Workers count (the topology defines how many cores exist).
	// Nil keeps the homogeneous model byte-identical to earlier versions.
	Topology *cpu.Topology
	// Power is the socket power model (DefaultModel if zero).
	Power power.Model
	// Tick is the server's control-loop granularity — the paper's
	// ShortTime. Defaults to 1 ms.
	Tick sim.Time
	// Seed drives all randomness (arrivals, service times).
	Seed int64
	// DiscardLatencies disables per-request latency retention (long
	// training runs only need counters).
	DiscardLatencies bool
	// LatencyCap, when positive, bounds how many per-request latency
	// samples are retained; completions beyond the cap are counted in
	// Counters.LatencyDropped instead of retained, so long runs have
	// bounded memory even without DiscardLatencies. The streaming
	// mean/p99 digests still see every completion. 0 means unlimited.
	LatencyCap int
	// SeriesInterval, when positive, records a time series row every
	// interval (RPS, power, queue, frequency) for Fig. 8-style plots.
	SeriesInterval sim.Time
	// WarmupTime excludes requests arriving before it from latency and
	// energy statistics (energy is still metered; reporting subtracts).
	Warmup sim.Time
	// Interference, when non-nil, returns the extra contention pressure a
	// colocated workload exerts at a given time (0 = none, 1 = as much as
	// a fully busy neighbor). It inflates service times through the same
	// contention model as sibling workers — the co-location effect §3.1
	// identifies as what breaks load-unaware predictors.
	Interference func(sim.Time) float64
	// Faults, when non-nil, injects actuation, sensor, and core faults
	// into the run (see internal/fault). Nil keeps the perfect-world
	// model and the exact behavior of earlier versions.
	Faults FaultInjector
	// RecordJobs retains a JobTrace per completed DAG job (invariant
	// tests); only meaningful with a DAG profile.
	RecordJobs bool
	// ladder is the DVFS frequency ladder (cpu.DefaultLadder if zero); only
	// this package's tests change it. With a Topology it remains the
	// default/reporting ladder; each core actuates on its own class ladder.
	ladder cpu.Ladder
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.App == nil {
		return out, fmt.Errorf("server: Config.App is required")
	}
	if err := out.App.Validate(); err != nil {
		return out, err
	}
	if out.ladder == (cpu.Ladder{}) {
		out.ladder = cpu.DefaultLadder()
	}
	if err := out.ladder.Validate(); err != nil {
		return out, err
	}
	if out.Power == (power.Model{}) {
		out.Power = power.DefaultModel()
	}
	if err := out.Power.Validate(); err != nil {
		return out, err
	}
	if out.Tick == 0 {
		out.Tick = sim.Millisecond
	}
	if out.Tick < 0 {
		return out, fmt.Errorf("server: negative tick %v", out.Tick)
	}
	if out.Warmup < 0 || out.SeriesInterval < 0 {
		return out, fmt.Errorf("server: negative warmup or series interval")
	}
	if out.LatencyCap < 0 {
		return out, fmt.Errorf("server: negative latency cap %d", out.LatencyCap)
	}
	if out.Topology != nil {
		if err := out.Topology.Validate(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// worker is one thread pinned to one core.
type worker struct {
	core     *cpu.Core
	req      *Request
	lastSync sim.Time  // work progress is integrated up to here
	compl    sim.Event // tentative completion event

	// class is the core's topology class index (0 when homogeneous); the
	// scale factors are the class's, all exactly 1 on homogeneous servers
	// so the hot-path arithmetic is bit-identical to the unscaled model.
	class     int
	speed     float64
	dynScale  float64
	leakScale float64
	// parked marks a core disabled by placement: it drains its current
	// request but takes no new work until re-enabled.
	parked bool

	// completeFn is the worker's completion callback, bound once at
	// construction so rescheduling a completion never allocates a closure.
	completeFn func()
}

// Server simulates the latency-critical system under one Policy.
type Server struct {
	eng     *sim.Engine
	cfg     Config
	prof    *app.Profile
	policy  Policy
	cores   []*cpu.Core
	workers []*worker
	queue   fifo
	meter   *power.Meter

	// busy counts workers holding a request; idle has bit i set while worker
	// i holds none and is not parked. Both are kept by dispatch, onComplete
	// and SetPlacement, so the per-request paths read the answer the scan
	// over workers would give without scanning. dispatching is the worker
	// whose OnDispatch callback is running, if any.
	busy        int
	idle        []uint64
	dispatching *worker

	counters     Counters
	applyPending []bool     // per-core governor apply in flight (fault delays)
	applyFns     []func()   // per-core delayed-apply callbacks, bound once
	wantFreq     []cpu.Freq // last accepted governor request per core
	ceiling      cpu.Freq   // platform frequency ceiling, 0 = none
	enforcing    bool       // a fault plan, or a ceiling was ever set: see enforceLimits
	latencies    latBlocks  // seconds, completed requests after warmup
	latMean      stats.Welford
	latP99       *stats.P2Quantile
	totalCycles  float64 // Σ freq·dt over all cores, for avg frequency
	powerLast    []sim.Time
	uncoreLast   sim.Time
	warmupEnergy float64
	warmupDone   bool

	rngService *sim.RNG
	arrivals   *workload.Arrivals
	nextID     uint64
	endAt      sim.Time
	runStart   sim.Time
	cancelTick func()

	// arrivalFn is the arrival callback bound once at construction, and
	// reqFree pools completed Requests for reuse — together with the
	// workers' bound completion callbacks they make a steady-state
	// arrival/dispatch/complete cycle allocation-free. injectFn is the
	// externally-driven variant (admit without rearming the internal
	// generator), bound once for the same reason. store is the run store
	// New seeded reqFree, jobFree and the latency spares from; End hands
	// them back through it to the next server (see runStore).
	arrivalFn  func()
	injectFn   func()
	reqFree    []*Request
	store      *runStore
	sampleInto app.IntoSampler // non-nil when the profile's sampler supports reuse

	// snapQueue, snapCores and snapClasses back the feeds of the latest
	// Snapshot: reused by every call, so a steady-state read allocates
	// nothing.
	snapQueue   []sim.Time
	snapCores   []sim.Time
	snapClasses []ClassSnap

	// DAG mode (profile with a stage graph): jobs are pooled like
	// requests, stage samplers are pre-asserted for the allocation-free
	// path, and the end-to-end digests replace per-request ones.
	dag       *app.DAG
	stageInto []app.IntoSampler
	nextJobID uint64
	jobFree   []*job
	jobTraces []JobTrace
	cpMean    stats.Welford // critical-path seconds of completed jobs
	cpShare   stats.Welford // critical path / end-to-end latency

	// Heterogeneous topology (nil slices when homogeneous): cumulative
	// per-class core energy, for the per-class observer/reward feed.
	topo              *cpu.Topology
	classEnergy       []float64
	warmupClassEnergy []float64

	series    *Series
	freqTrace *FreqTrace
}

// New builds a server bound to a simulation engine and a policy.
func New(eng *sim.Engine, cfg Config, policy Policy) (*Server, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, fmt.Errorf("server: nil policy")
	}
	s := &Server{
		eng:        eng,
		cfg:        full,
		prof:       full.App,
		policy:     policy,
		meter:      power.NewMeter(),
		rngService: sim.NewRNG(sim.SubSeed(full.Seed, "service")),
		latP99:     stats.NewP2Quantile(0.99),
		enforcing:  full.Faults != nil,
	}
	n := full.App.Workers
	if full.Topology != nil {
		n = full.Topology.TotalCores()
		s.topo = full.Topology
		s.classEnergy = make([]float64, len(full.Topology.Classes))
		s.warmupClassEnergy = make([]float64, len(full.Topology.Classes))
	}
	s.cores = make([]*cpu.Core, n)
	s.workers = make([]*worker, n)
	s.powerLast = make([]sim.Time, n)
	s.applyPending = make([]bool, n)
	s.applyFns = make([]func(), n)
	s.wantFreq = make([]cpu.Freq, n)
	s.idle = make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		i := i
		w := &worker{speed: 1, dynScale: 1, leakScale: 1}
		ladder := full.ladder
		if s.topo != nil {
			w.class = s.topo.ClassOf(i)
			cl := s.topo.Classes[w.class]
			ladder = cl.Ladder
			w.speed = cl.SpeedFactor()
			w.dynScale = cl.DynFactor()
			w.leakScale = cl.LeakFactor()
		}
		w.core = cpu.NewCore(i, ladder)
		s.wantFreq[i] = ladder.Max // NewCore's starting point
		w.completeFn = func() { s.onComplete(w) }
		s.cores[i] = w.core
		s.workers[i] = w
		s.noteIdle(w)
		s.applyFns[i] = func() {
			s.applyPending[i] = false
			s.applyFreq(i, s.wantFreq[i])
		}
	}
	s.arrivalFn = s.onArrival
	s.injectFn = s.admit
	s.sampleInto, _ = full.App.Sampler.(app.IntoSampler)
	if full.App.DAG != nil {
		s.dag = full.App.DAG
		s.stageInto = make([]app.IntoSampler, s.dag.NumStages())
		for i, st := range s.dag.Stages {
			s.stageInto[i], _ = st.Sampler.(app.IntoSampler)
		}
	}
	if full.SeriesInterval > 0 {
		s.series = newSeries(full.SeriesInterval)
	}
	s.takeStore()
	return s, nil
}

// EnableFreqTrace records per-core target frequencies each tick inside
// [from, to], plus request begin/end markers — the raw material of the
// paper's Figs. 4, 9, 10 and 11.
func (s *Server) EnableFreqTrace(from, to sim.Time) *FreqTrace {
	s.freqTrace = newFreqTrace(from, to, len(s.cores))
	return s.freqTrace
}

// Run drives the simulation with arrivals drawn from trace until duration
// of virtual time has elapsed, then returns the result.
func (s *Server) Run(trace *workload.Trace, duration sim.Time) (*Result, error) {
	if err := s.Begin(trace, duration); err != nil {
		return nil, err
	}
	s.eng.RunUntil(s.endAt)
	return s.End(), nil
}

// Begin validates and arms the simulation — arrival generator, policy,
// control-loop tick — without driving the engine. Callers that need to
// interleave the run with other engine activity (or measure it step by
// step) drive eng.RunUntil themselves up to Begin's duration and then call
// End. Run is Begin + RunUntil(end) + End.
func (s *Server) Begin(trace *workload.Trace, duration sim.Time) error {
	if err := trace.Validate(); err != nil {
		return err
	}
	if duration <= 0 {
		return fmt.Errorf("server: non-positive duration %v", duration)
	}
	start := s.eng.Now()
	s.runStart = start
	s.endAt = start + duration
	for i := range s.powerLast {
		s.powerLast[i] = start
	}
	s.uncoreLast = start
	s.arrivals = workload.NewArrivals(trace, sim.NewRNG(sim.SubSeed(s.cfg.Seed, "arrivals")))
	s.policy.Init(s)

	// Control loop: the paper's ShortTime tick.
	s.cancelTick = s.eng.Every(start+s.cfg.Tick, s.cfg.Tick, s.onTick)

	s.scheduleNextArrival()
	return nil
}

// BeginExternal arms the simulation for externally injected arrivals: the
// policy, control-loop tick, and accounting start exactly as in Begin, but
// no internal arrival generator is armed — every request enters through
// Inject. This is the cluster mode: a fleet-level load balancer owns the
// arrival process and each server only executes what is routed to it. The
// caller drives eng.RunUntil up to the duration and then calls End.
func (s *Server) BeginExternal(duration sim.Time) error {
	if duration <= 0 {
		return fmt.Errorf("server: non-positive duration %v", duration)
	}
	start := s.eng.Now()
	s.runStart = start
	s.endAt = start + duration
	for i := range s.powerLast {
		s.powerLast[i] = start
	}
	s.uncoreLast = start
	s.policy.Init(s)
	s.cancelTick = s.eng.Every(start+s.cfg.Tick, s.cfg.Tick, s.onTick)
	return nil
}

// Inject schedules one request arrival at virtual time at. Only valid after
// BeginExternal; at must not precede the engine's current time or reach the
// run's end. Work is sampled from the profile when the arrival fires, from
// the server's own service RNG, so a server fed the same arrival instants
// behaves identically however they were produced. Arrivals are posted
// (sim.Engine.Post): injected in non-decreasing time, they never enter the
// event heap, which then holds only completions, ticks and delayed applies.
func (s *Server) Inject(at sim.Time) error {
	if at < s.eng.Now() {
		return fmt.Errorf("server: inject at %v before now %v", at, s.eng.Now())
	}
	if at >= s.endAt {
		return fmt.Errorf("server: inject at %v beyond run end %v", at, s.endAt)
	}
	s.eng.Post(at, s.injectFn)
	return nil
}

// RunSegment drives the engine up to virtual time until (clamped to the
// run's end) and reports whether the run end was reached. It is the lockstep
// primitive of the vectorized trainer: Begin once, RunSegment to each control
// boundary while an external caller observes and acts between segments, End
// when the final segment reports true. Events scheduled exactly at the
// boundary — the control tick included — fire inside the segment that ends
// there, so boundary-time accounting is settled when RunSegment returns.
func (s *Server) RunSegment(until sim.Time) bool {
	if until > s.endAt {
		until = s.endAt
	}
	s.eng.RunUntil(until)
	return until >= s.endAt
}

// End settles accounting at the run's end time, stops the control loop, and
// builds the result. The engine must have been driven to Begin's duration.
// The run's free storage then goes back to the run-store pool for the next
// server (see runStore).
func (s *Server) End() *Result {
	s.cancelTick()
	s.accrueAll(s.endAt)
	s.accrueUncore(s.endAt)
	res := s.buildResult(s.runStart, s.endAt-s.runStart)
	s.releaseStore()
	return res
}

// EndNow settles accounting at the engine's current time instead of the
// armed duration — the live-serving stop path, where the wall-clock bridge
// ends a run long before its horizon. Equivalent to End when the engine has
// been driven to the full duration (RunUntil leaves Now at its target even
// past the last event). Requests still queued or in service are dropped
// from the result's counters-conservation only in the sense that they never
// complete; Arrivals - Completions reports them.
func (s *Server) EndNow() *Result {
	s.cancelTick()
	now := s.eng.Now()
	s.accrueAll(now)
	s.accrueUncore(now)
	res := s.buildResult(s.runStart, now-s.runStart)
	s.releaseStore()
	return res
}

func (s *Server) scheduleNextArrival() {
	at := s.arrivals.Next()
	if at >= s.endAt {
		return
	}
	if at < s.eng.Now() {
		// The generator starts at time 0; if the engine started later
		// (chained runs), fast-forward the generator.
		for at < s.eng.Now() {
			at = s.arrivals.Next()
		}
		if at >= s.endAt {
			return
		}
	}
	s.eng.Post(at, s.arrivalFn)
}

// getRequest takes a Request from the free list, or allocates one when it
// is dry (only while the in-flight high-water mark still rises past what
// the run store brought).
func (s *Server) getRequest() *Request {
	if n := len(s.reqFree); n > 0 {
		r := s.reqFree[n-1]
		s.reqFree = s.reqFree[:n-1]
		return r
	}
	return &Request{}
}

// putRequest recycles a completed request, within this run and, through the
// run store, into later servers. Callers must not touch r after this; the
// Policy contract (no retention beyond callbacks) is what makes recycling
// sound.
func (s *Server) putRequest(r *Request) {
	s.reqFree = append(s.reqFree, r)
}

func (s *Server) onArrival() {
	s.admit()
	s.scheduleNextArrival()
}

// admit materializes one request arriving now — sample its work, notify the
// policy, and dispatch or enqueue it. It is the shared tail of the internal
// arrival generator and the external injection path. On a DAG profile the
// arrival is a whole job: its root stages are admitted instead.
func (s *Server) admit() {
	if s.dag != nil {
		s.admitJob()
		return
	}
	now := s.eng.Now()
	r := s.getRequest()
	r.ID = s.nextID
	r.Arrive = now
	r.Start = -1
	r.Finish = -1
	r.CoreID = -1
	r.ServiceActual = 0
	r.remaining = 0
	r.Stage = -1
	r.job = nil
	if s.sampleInto != nil {
		s.sampleInto.SampleInto(s.rngService, &r.Work)
	} else {
		r.Work = s.prof.Sampler.Sample(s.rngService)
	}
	s.nextID++
	s.counters.Arrivals++
	s.policy.OnArrival(r)
	if w := s.idleWorker(); w != nil {
		s.dispatch(w, r)
	} else {
		s.queue.Push(r)
	}
}

// noteIdle brings w's bit of the idle set in line with its state.
func (s *Server) noteIdle(w *worker) {
	i := w.core.ID()
	if w.req == nil && !w.parked {
		s.idle[i>>6] |= 1 << (i & 63)
	} else {
		s.idle[i>>6] &^= 1 << (i & 63)
	}
}

// idleWorker returns the lowest-indexed worker that can take a request now:
// in the idle set and, under a fault plan, not offline at this instant.
func (s *Server) idleWorker() *worker {
	now := s.eng.Now()
	for wi, word := range s.idle {
		for ; word != 0; word &= word - 1 {
			w := s.workers[wi<<6+bits.TrailingZeros64(word)]
			if s.cfg.Faults != nil && s.cfg.Faults.CoreOffline(now, w.core.ID()) {
				continue
			}
			return w
		}
	}
	return nil
}

// dispatch starts r on the idle worker w at the current time.
func (s *Server) dispatch(w *worker, r *Request) {
	now := s.eng.Now()
	rho := 0.0
	if len(s.workers) > 1 {
		rho = float64(s.busy) / float64(len(s.workers)-1)
	}
	if s.cfg.Interference != nil {
		if x := s.cfg.Interference(now); x > 0 {
			rho += x
		}
	}
	r.ServiceActual = sim.Time(float64(r.Work.ServiceRef) * (1 + s.prof.ContentionCoef*rho))
	r.remaining = r.ServiceActual.Seconds()
	r.Start = now
	r.CoreID = w.core.ID()

	s.accrueCore(w, now) // idle → busy power transition
	w.req = r
	s.busy++
	s.noteIdle(w)
	// A sleeping core must wake before executing; its progress starts at
	// the end of the wake-up latency (the sleep-state extension, §6).
	w.lastSync = w.core.WakeUp(now)
	s.counters.Dispatched++
	if s.freqTrace != nil {
		s.freqTrace.markBegin(now, w.core.ID())
	}
	// The completion is scheduled once, below: a frequency write to w from
	// inside its own OnDispatch settles progress and energy but leaves the
	// scheduling to this call (see actuate).
	outer := s.dispatching
	s.dispatching = w
	s.policy.OnDispatch(r, w.core.ID())
	s.dispatching = outer
	s.scheduleCompletion(w)
}

// completionTime computes when w's current request finishes given the core's
// (possibly transitioning) frequency schedule.
func (s *Server) completionTime(w *worker, now sim.Time) sim.Time {
	rem := w.req.remaining
	// Progress cannot start before a pending wake-up completes.
	if w.lastSync > now {
		now = w.lastSync
	}
	if rem <= 0 {
		return now
	}
	f0 := w.core.FreqAt(now)
	if at, f1, ok := w.core.PendingSwitch(); ok && at > now {
		head := (at - now).Seconds() * s.prof.SpeedAt(f0) * w.speed
		if head < rem {
			return at + sim.Seconds((rem-head)/(s.prof.SpeedAt(f1)*w.speed))
		}
	}
	return now + sim.Seconds(rem/(s.prof.SpeedAt(f0)*w.speed))
}

// scheduleCompletion (re)schedules w's completion event for its current
// frequency schedule; a pending one is moved, not cancelled and re-added.
func (s *Server) scheduleCompletion(w *worker) {
	w.compl = s.eng.Reschedule(w.compl, s.completionTime(w, s.eng.Now()), w.completeFn)
}

// syncWorker integrates the request's progress up to now. A busy worker's
// lastSync may sit in the future (pending wake-up); it is never rewound.
func (s *Server) syncWorker(w *worker, now sim.Time) {
	if w.req == nil {
		w.lastSync = now
		return
	}
	if now <= w.lastSync {
		return
	}
	var segs [2]cpu.Segment
	n := w.core.SegmentsInto(w.lastSync, now, &segs)
	for _, seg := range segs[:n] {
		w.req.remaining -= (seg.To - seg.From).Seconds() * s.prof.SpeedAt(seg.F) * w.speed
	}
	w.lastSync = now
}

func (s *Server) onComplete(w *worker) {
	now := s.eng.Now()
	r := w.req
	if r == nil {
		return // stale event (should have been cancelled)
	}
	s.syncWorker(w, now)
	if at := s.completionTime(w, now); at > now {
		// Numerical drift left more than a clock tick of work; finish it.
		w.compl = s.eng.At(at, w.completeFn)
		return
	}
	r.Finish = now
	r.remaining = 0

	s.accrueCore(w, now) // busy → idle power transition
	w.req = nil
	s.busy--
	s.noteIdle(w)
	w.compl = sim.Event{}

	s.counters.Completions++
	if r.job == nil {
		s.recordLatency(now, r.Latency())
	}
	if s.freqTrace != nil {
		s.freqTrace.markEnd(now, w.core.ID())
	}
	s.policy.OnComplete(r, w.core.ID())
	// The policy contract forbids retaining r beyond the callback, so the
	// request can be recycled for a future arrival.
	j, stage, start := r.job, r.Stage, r.Start
	r.job = nil
	s.putRequest(r)
	if j != nil {
		// Stage-graph bookkeeping: successors whose predecessors have all
		// finished are admitted now, and may be dispatched to this very
		// worker (chains keep cache locality).
		s.completeStage(j, stage, start, now)
	}

	// A core that failed mid-request drains it but takes no new work; the
	// queue waits for an online worker (the next arrival or tick). A parked
	// core likewise drains and then idles until placement re-enables it.
	if w.parked {
		return
	}
	if s.cfg.Faults != nil && s.cfg.Faults.CoreOffline(now, w.core.ID()) {
		return
	}
	if w.req == nil {
		if next := s.queue.Pop(); next != nil {
			s.dispatch(w, next)
		}
	}
}

// recordLatency accounts one end-to-end latency, a flat request's or a DAG
// job's, finishing at now: an SLA timeout, and after warmup the streaming
// digests plus the retained sample store. The digests stay O(1) however long
// the run; samples are kept only when the caller wants them, in chunked
// blocks bounded by LatencyCap. It reports whether now is past warmup.
func (s *Server) recordLatency(now, lat sim.Time) bool {
	if lat > s.prof.SLA {
		s.counters.Timeouts++
	}
	if now < s.cfg.Warmup {
		return false
	}
	sec := lat.Seconds()
	s.latMean.Add(sec)
	s.latP99.Add(sec)
	switch {
	case s.cfg.DiscardLatencies:
	case s.cfg.LatencyCap > 0 && s.latencies.n >= s.cfg.LatencyCap:
		s.counters.LatencyDropped++
	default:
		s.latencies.add(sec)
	}
	return true
}

// LatencyDigests returns the streaming mean and p99 of end-to-end latency in
// seconds over every completion past warmup so far: what a caller driving
// the run reads between segments, before End builds the Result.
func (s *Server) LatencyDigests() (mean, p99 float64) {
	return s.latMean.Mean(), s.latP99.Value()
}

// onTick fires every cfg.Tick: bring accounting up to date, let the policy
// act, and sample any enabled recorders.
func (s *Server) onTick(now sim.Time) {
	if now > s.endAt {
		return
	}
	s.accrueAll(now)
	s.accrueUncore(now)
	if !s.warmupDone && now >= s.cfg.Warmup {
		s.warmupEnergy = s.meter.Energy()
		copy(s.warmupClassEnergy, s.classEnergy)
		s.warmupDone = true
	}
	if s.enforcing {
		s.enforceLimits(now)
	}
	s.policy.OnTick(now)
	if s.freqTrace != nil {
		s.freqTrace.sample(now, s.cores)
	}
	if s.series != nil {
		s.series.maybeSample(now, s)
	}
}

// enforceLimits applies the limits that act on standing state rather than
// on requests: a ceiling or thermal throttle clamps a core's target even
// when no governor write arrives, and queued requests stranded by offline
// cores are re-dispatched once a worker is back online. It runs every tick
// once the server is enforcing (a fault plan, or a ceiling was ever set),
// and then every governor write goes through SetFreq.
func (s *Server) enforceLimits(now sim.Time) {
	for _, w := range s.workers {
		i := w.core.ID()
		switch cap := s.freqCap(now, i); {
		case cap > 0 && w.core.Target() > cap:
			s.applyFreq(i, cap)
		case cap == 0 && w.core.Target() != s.wantFreq[i] && !s.applyPending[i]:
			// Limit lifted (and no governor write still in flight): the
			// hardware returns to the standing request.
			s.applyFreq(i, s.wantFreq[i])
		}
	}
	for s.queue.Len() > 0 {
		w := s.idleWorker()
		if w == nil {
			return
		}
		s.dispatch(w, s.queue.Pop())
	}
}

// accrueCore integrates one worker's core power up to now.
func (s *Server) accrueCore(w *worker, now sim.Time) {
	i := w.core.ID()
	from := s.powerLast[i]
	if now <= from {
		return
	}
	busy := w.req != nil
	factor := 1.0
	if !busy {
		factor = w.core.CState().PowerFactor()
	}
	var segs [2]cpu.Segment
	n := w.core.SegmentsInto(from, now, &segs)
	for _, seg := range segs[:n] {
		// With unit class factors CorePowerScaled is numerically identical
		// to CorePower, keeping homogeneous runs byte-identical.
		watts := s.cfg.Power.CorePowerScaled(seg.F, busy, w.dynScale, w.leakScale) * factor
		s.meter.Accrue(seg.From, seg.To, watts)
		if s.classEnergy != nil {
			s.classEnergy[w.class] += watts * (seg.To - seg.From).Seconds()
		}
		s.totalCycles += float64(seg.F) * (seg.To - seg.From).Seconds()
	}
	s.powerLast[i] = now
}

func (s *Server) accrueAll(now sim.Time) {
	for _, w := range s.workers {
		s.accrueCore(w, now)
	}
}

func (s *Server) accrueUncore(now sim.Time) {
	if now > s.uncoreLast {
		s.meter.Accrue(s.uncoreLast, now, s.cfg.Power.Uncore)
		s.uncoreLast = now
	}
}
