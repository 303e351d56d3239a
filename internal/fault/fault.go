// Package fault is the robustness layer of the reproduction: deterministic,
// seed-driven fault injectors that recreate the messy real-world conditions
// the paper's §3.1 motivates DVFS feedback control with — slow and lossy
// `userspace` governor actuation, noisy RAPL-style telemetry, transient core
// failures and thermal throttling, and flash-crowd load bursts — plus the
// guarded-policy watchdog (guard.go) that keeps a learned policy safe under
// them.
//
// Everything an Injector does is derived from a single Plan seed through
// sim.RNG substreams, so an identical Plan reproduces a bit-identical run.
package fault

import (
	"fmt"

	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

// Plan is a reproducible fault-injection campaign. The zero value of each
// sub-plan disables that injector, so plans compose freely.
type Plan struct {
	// Seed drives every injector's randomness.
	Seed int64
	// Actuation perturbs DVFS transitions.
	Actuation ActuationPlan
	// Sensor perturbs the telemetry feed policies observe.
	Sensor SensorPlan
	// Cores fails or throttles individual cores.
	Cores CorePlan
	// Load layers burst spikes onto the request trace.
	Load LoadPlan
}

// ActuationPlan models an imperfect DVFS interface: the `userspace`
// governor's sysfs write takes time, is sometimes lost, and occasionally the
// whole per-core interface wedges for a while.
type ActuationPlan struct {
	// ExtraLatency is added to every transition on top of the ladder's
	// hardware TransitionLatency.
	ExtraLatency sim.Time
	// JitterLatency adds a further uniform [0, JitterLatency) delay.
	JitterLatency sim.Time
	// DropProb is the probability a transition request is silently lost.
	DropProb float64
	// StuckProb is the probability a transition wedges the core's DVFS
	// interface: the request and every subsequent one on that core are
	// ignored for StuckFor.
	StuckProb float64
	// StuckFor is how long a wedged interface stays unresponsive.
	StuckFor sim.Time
}

func (p ActuationPlan) enabled() bool { return p != (ActuationPlan{}) }

// SensorPlan models imperfect telemetry: RAPL energy counters are noisy,
// reads can return stale samples, and detail fields can be missing.
type SensorPlan struct {
	// EnergyNoiseFrac is the relative std-dev of multiplicative Gaussian
	// noise on the cumulative energy reading.
	EnergyNoiseFrac float64
	// StaleProb is the probability a snapshot read returns the previous
	// snapshot unchanged (a hung or rate-limited telemetry daemon).
	StaleProb float64
	// DropProb is the probability the per-request SLA-budget detail
	// fields are missing from a snapshot.
	DropProb float64
	// QueueJitter perturbs the queue-length reading by a uniform integer
	// in [-QueueJitter, +QueueJitter], clamped at zero.
	QueueJitter int
}

func (p SensorPlan) enabled() bool { return p != (SensorPlan{}) }

// CorePlan models transient per-core failures (hotplug offlining) and
// thermal throttling, each as an alternating renewal process with
// exponentially distributed up and down times.
type CorePlan struct {
	// MTBF is the mean online time before a core goes offline (0 = cores
	// never fail). An offline core drains its current request but accepts
	// no new dispatches.
	MTBF sim.Time
	// MTTR is the mean time a failed core stays offline.
	MTTR sim.Time
	// ThrottleCap caps a core's frequency while thermally throttled
	// (0 = no throttling).
	ThrottleCap cpu.Freq
	// ThrottleMTBF is the mean time between throttle episodes.
	ThrottleMTBF sim.Time
	// ThrottleMTTR is the mean duration of a throttle episode.
	ThrottleMTTR sim.Time
}

// LoadPlan layers flash-crowd spikes onto a workload trace.
type LoadPlan struct {
	// SpikeProb is the per-bucket probability of a burst.
	SpikeProb float64
	// SpikeMul multiplies the bucket's rate during a burst.
	SpikeMul float64
}

func (p LoadPlan) enabled() bool { return p.SpikeProb > 0 && p.SpikeMul > 0 }

// Validate reports an error for malformed plans.
func (p Plan) Validate() error {
	a := p.Actuation
	if a.DropProb < 0 || a.DropProb > 1 || a.StuckProb < 0 || a.StuckProb > 1 {
		return fmt.Errorf("fault: actuation probabilities outside [0,1]: %+v", a)
	}
	if a.ExtraLatency < 0 || a.JitterLatency < 0 || a.StuckFor < 0 {
		return fmt.Errorf("fault: negative actuation durations: %+v", a)
	}
	if a.StuckProb > 0 && a.StuckFor == 0 {
		return fmt.Errorf("fault: StuckProb set with zero StuckFor")
	}
	s := p.Sensor
	if s.EnergyNoiseFrac < 0 || s.StaleProb < 0 || s.StaleProb > 1 ||
		s.DropProb < 0 || s.DropProb > 1 || s.QueueJitter < 0 {
		return fmt.Errorf("fault: bad sensor plan: %+v", s)
	}
	c := p.Cores
	if c.MTBF < 0 || c.MTTR < 0 || c.ThrottleMTBF < 0 || c.ThrottleMTTR < 0 || c.ThrottleCap < 0 {
		return fmt.Errorf("fault: negative core-fault parameters: %+v", c)
	}
	if c.MTBF > 0 && c.MTTR == 0 {
		return fmt.Errorf("fault: core MTBF set with zero MTTR")
	}
	if c.ThrottleCap > 0 && (c.ThrottleMTBF == 0 || c.ThrottleMTTR == 0) {
		return fmt.Errorf("fault: ThrottleCap set without throttle MTBF/MTTR")
	}
	l := p.Load
	if l.SpikeProb < 0 || l.SpikeProb > 1 || l.SpikeMul < 0 {
		return fmt.Errorf("fault: bad load plan: %+v", l)
	}
	return nil
}

// ApplyToTrace returns trace with the plan's load bursts layered on
// (deterministic in the plan seed). The input trace is not modified.
func (p Plan) ApplyToTrace(tr *workload.Trace) *workload.Trace {
	if !p.Load.enabled() {
		return tr
	}
	rng := sim.NewRNG(sim.SubSeed(p.Seed, "fault-load"))
	out := &workload.Trace{Period: tr.Period, Rates: make([]float64, len(tr.Rates))}
	copy(out.Rates, tr.Rates)
	for i := range out.Rates {
		if rng.Bernoulli(p.Load.SpikeProb) {
			out.Rates[i] *= p.Load.SpikeMul
		}
	}
	return out
}

// Stats counts injected faults by kind.
type Stats struct {
	DroppedTransitions uint64 // governor writes silently lost
	DelayedTransitions uint64 // writes that arrived late
	StuckWindows       uint64 // DVFS interface wedge episodes
	StuckDropped       uint64 // writes swallowed by a wedged interface
	StaleSnapshots     uint64 // telemetry reads that returned old data
	NoisyReads         uint64 // energy readings perturbed
	DroppedFields      uint64 // snapshots missing SLA detail fields
	CoreFailures       uint64 // offline episodes started
	ThrottleEpisodes   uint64 // throttle episodes started
}

// Map renders the stats as the named counters the server Result carries.
func (s Stats) Map() map[string]uint64 {
	return map[string]uint64{
		"fault.dropped_transitions": s.DroppedTransitions,
		"fault.delayed_transitions": s.DelayedTransitions,
		"fault.stuck_windows":       s.StuckWindows,
		"fault.stuck_dropped":       s.StuckDropped,
		"fault.stale_snapshots":     s.StaleSnapshots,
		"fault.noisy_reads":         s.NoisyReads,
		"fault.dropped_fields":      s.DroppedFields,
		"fault.core_failures":       s.CoreFailures,
		"fault.throttle_episodes":   s.ThrottleEpisodes,
	}
}

// renewal is a two-state alternating renewal process (up/down) with
// exponential dwell times, advanced lazily and deterministically from its
// own RNG stream.
type renewal struct {
	rng      *sim.RNG
	upMean   sim.Time
	downMean sim.Time
	down     bool
	flipAt   sim.Time
	flips    *uint64 // counts transitions into the down state
}

func newRenewal(rng *sim.RNG, upMean, downMean sim.Time, flips *uint64) *renewal {
	r := &renewal{rng: rng, upMean: upMean, downMean: downMean, flips: flips}
	r.flipAt = r.dwell(upMean)
	return r
}

func (r *renewal) dwell(mean sim.Time) sim.Time {
	return sim.Seconds(r.rng.Exp(1 / mean.Seconds()))
}

// isDown advances the process to now and reports the current state.
func (r *renewal) isDown(now sim.Time) bool {
	for r.flipAt <= now {
		r.down = !r.down
		if r.down {
			*r.flips++
			r.flipAt += r.dwell(r.downMean)
		} else {
			r.flipAt += r.dwell(r.upMean)
		}
	}
	return r.down
}

// Injector realizes a Plan against a running server. It implements
// server.FaultInjector; install it via server.Config.Faults. An Injector is
// single-run state: build a fresh one per simulation.
type Injector struct {
	plan   Plan
	act    *sim.RNG
	sensor *sim.RNG

	stuckUntil []sim.Time
	offline    []*renewal
	throttle   []*renewal

	// lastSnap is the read a stale fault repeats. Its feeds live in the
	// injector's own buffers: the server reuses its feed slices on every
	// Snapshot call.
	lastSnap    server.Snapshot
	haveSnap    bool
	lastQueue   []sim.Time
	lastCores   []sim.Time
	lastClasses []server.ClassSnap

	stats Stats
}

var _ server.FaultInjector = (*Injector)(nil)

// NewInjector builds an injector for a server with numCores worker cores.
func NewInjector(plan Plan, numCores int) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if numCores <= 0 {
		return nil, fmt.Errorf("fault: non-positive core count %d", numCores)
	}
	stream := func(name string) *sim.RNG { return sim.NewRNG(sim.SubSeed(plan.Seed, name)) }
	in := &Injector{
		plan:       plan,
		act:        stream("fault-actuation"),
		sensor:     stream("fault-sensor"),
		stuckUntil: make([]sim.Time, numCores),
		offline:    make([]*renewal, numCores),
		throttle:   make([]*renewal, numCores),
	}
	for i := 0; i < numCores; i++ {
		if plan.Cores.MTBF > 0 {
			in.offline[i] = newRenewal(stream(fmt.Sprintf("fault-core-%d", i)),
				plan.Cores.MTBF, plan.Cores.MTTR, &in.stats.CoreFailures)
		}
		if plan.Cores.ThrottleCap > 0 {
			in.throttle[i] = newRenewal(stream(fmt.Sprintf("fault-throttle-%d", i)),
				plan.Cores.ThrottleMTBF, plan.Cores.ThrottleMTTR, &in.stats.ThrottleEpisodes)
		}
	}
	return in, nil
}

// Stats implements server.FaultInjector.
func (in *Injector) Stats() map[string]uint64 { return in.stats.Map() }

// Counters returns the raw fault counters.
func (in *Injector) Counters() Stats { return in.stats }

// OnFreqSet implements server.FaultInjector.
func (in *Injector) OnFreqSet(now sim.Time, core int, f cpu.Freq) (cpu.Freq, sim.Time, bool) {
	a := in.plan.Actuation
	if !a.enabled() {
		return f, 0, false
	}
	if in.stuckUntil[core] > now {
		in.stats.StuckDropped++
		return f, 0, true
	}
	if a.StuckProb > 0 && in.act.Bernoulli(a.StuckProb) {
		in.stuckUntil[core] = now + a.StuckFor
		in.stats.StuckWindows++
		in.stats.StuckDropped++
		return f, 0, true
	}
	if a.DropProb > 0 && in.act.Bernoulli(a.DropProb) {
		in.stats.DroppedTransitions++
		return f, 0, true
	}
	delay := a.ExtraLatency
	if a.JitterLatency > 0 {
		delay += sim.Time(in.act.Float64() * float64(a.JitterLatency))
	}
	if delay > 0 {
		in.stats.DelayedTransitions++
	}
	return f, delay, false
}

// FreqCap implements server.FaultInjector.
func (in *Injector) FreqCap(now sim.Time, core int) cpu.Freq {
	if r := in.throttle[core]; r != nil && r.isDown(now) {
		return in.plan.Cores.ThrottleCap
	}
	return 0
}

// CoreOffline implements server.FaultInjector.
func (in *Injector) CoreOffline(now sim.Time, core int) bool {
	r := in.offline[core]
	return r != nil && r.isDown(now)
}

// PerturbSnapshot implements server.FaultInjector.
func (in *Injector) PerturbSnapshot(now sim.Time, snap server.Snapshot) server.Snapshot {
	sp := in.plan.Sensor
	if !sp.enabled() {
		return snap
	}
	if sp.StaleProb > 0 && in.haveSnap && in.sensor.Bernoulli(sp.StaleProb) {
		in.stats.StaleSnapshots++
		return in.lastSnap
	}
	if sp.EnergyNoiseFrac > 0 {
		snap.Energy *= 1 + in.sensor.Normal(0, sp.EnergyNoiseFrac)
		in.stats.NoisyReads++
	}
	if sp.QueueJitter > 0 {
		snap.QueueLen += in.sensor.Intn(2*sp.QueueJitter+1) - sp.QueueJitter
		if snap.QueueLen < 0 {
			snap.QueueLen = 0
		}
	}
	if sp.DropProb > 0 && in.sensor.Bernoulli(sp.DropProb) {
		snap.QueueSLARemaining = nil
		snap.CoreSLARemaining = nil
		in.stats.DroppedFields++
	}
	in.lastSnap = snap
	in.lastSnap.QueueSLARemaining = keepFeed(&in.lastQueue, snap.QueueSLARemaining)
	in.lastSnap.CoreSLARemaining = keepFeed(&in.lastCores, snap.CoreSLARemaining)
	in.lastSnap.Classes = keepFeed(&in.lastClasses, snap.Classes)
	in.haveSnap = true
	return snap
}

// keepFeed copies src into *buf, reusing its storage, and returns the copy;
// a nil src stays nil.
func keepFeed[T any](buf *[]T, src []T) []T {
	if src == nil {
		return nil
	}
	*buf = append((*buf)[:0], src...)
	return *buf
}
