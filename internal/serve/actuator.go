package serve

import (
	"time"

	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/stats"
)

// BackendStats is the per-control-period reading the bridge takes from its
// actuator: cumulative backend counters plus instantaneous load. One flat
// struct, filled in place — telemetry never allocates per period.
type BackendStats struct {
	Counters   server.Counters
	QueueLen   int
	BusyCores  int
	EnergyJ    float64
	AvgFreqGHz float64
	LatMeanSec float64
	LatP99Sec  float64
	LatN       int
}

// Actuator abstracts the cores the serving policy manages. The daemon's
// bridge drives it with wall-clock offsets (durations since serving began):
// Begin arms the backend for a horizon, Inject admits one request at an
// offset, Advance runs the backend's control loop up to an offset, Stats
// reads the current counters, and End settles accounting.
//
// The simulated backend (SimActuator) maps offsets one-to-one onto virtual
// time, so the full reproduction stack — server, policy, guard, power
// meter — executes unmodified under real traffic. A hardware backend would
// instead actuate /sys/devices/system/cpu cpufreq knobs and read
// per-request completions from the application.
//
// All methods are called from the single bridge goroutine; implementations
// need no internal locking.
type Actuator interface {
	// Begin arms the backend to serve for at most horizon.
	Begin(horizon time.Duration) error
	// Inject admits one request at the given offset since Begin. Offsets
	// before the backend's current position are clamped forward (late
	// delivery, never time travel); offsets at or past the horizon fail.
	Inject(at time.Duration) error
	// Advance runs the backend up to the given offset. Events scheduled
	// exactly at the offset fire inside the call.
	Advance(until time.Duration) error
	// Stats fills st with the backend's current reading.
	Stats(st *BackendStats)
	// End stops the backend and returns its final result.
	End() *server.Result
}

// SimActuator executes requests on simulated DVFS cores: the reproduction's
// server driven through its external-arrival interface
// (BeginExternal/Inject/RunSegment), with virtual time locked to the wall
// clock by the bridge. The policy, guard, power model, and accounting are
// exactly the ones every simulated experiment uses.
type SimActuator struct {
	eng *sim.Engine
	srv *server.Server
	tap *tapPolicy
}

// NewSimActuator builds the simulated backend. The policy is wrapped with a
// latency tap so the bridge can publish streaming latency digests without
// touching the server's internals mid-run.
func NewSimActuator(cfg server.Config, pol server.Policy) (*SimActuator, error) {
	eng := sim.NewEngine()
	tap := &tapPolicy{inner: pol, p99: stats.NewP2Quantile(0.99)}
	srv, err := server.New(eng, cfg, tap)
	if err != nil {
		return nil, err
	}
	return &SimActuator{eng: eng, srv: srv, tap: tap}, nil
}

// Begin implements Actuator.
func (a *SimActuator) Begin(horizon time.Duration) error {
	return a.srv.BeginExternal(sim.Time(horizon))
}

// Inject implements Actuator.
func (a *SimActuator) Inject(at time.Duration) error {
	t := sim.Time(at)
	if now := a.eng.Now(); t < now {
		t = now
	}
	return a.srv.Inject(t)
}

// Advance implements Actuator.
func (a *SimActuator) Advance(until time.Duration) error {
	a.srv.RunSegment(sim.Time(until))
	return nil
}

// Stats implements Actuator.
func (a *SimActuator) Stats(st *BackendStats) {
	st.Counters = a.srv.Counters()
	st.QueueLen = a.srv.QueueLen()
	st.BusyCores = a.srv.BusyCores()
	st.EnergyJ = a.srv.Energy()
	var sum float64
	n := a.srv.NumCores()
	for i := 0; i < n; i++ {
		sum += float64(a.srv.Freq(i))
	}
	if n > 0 {
		st.AvgFreqGHz = sum / float64(n)
	}
	st.LatMeanSec = a.tap.mean.Mean()
	st.LatP99Sec = a.tap.p99.Value()
	st.LatN = a.tap.mean.N()
}

// End implements Actuator. The daemon stops when told to, not at its
// horizon, so accounting settles at the backend's current position.
func (a *SimActuator) End() *server.Result { return a.srv.EndNow() }

// tapPolicy forwards every callback to the inner policy and records
// completion latencies into streaming digests the bridge reads between
// segments. It sits outside the guard, so the digests reflect what clients
// experience in both engaged and safe mode.
type tapPolicy struct {
	inner server.Policy
	ctl   server.Control
	mean  stats.Welford
	p99   *stats.P2Quantile
}

func (t *tapPolicy) Name() string { return t.inner.Name() }

func (t *tapPolicy) Init(c server.Control) {
	t.ctl = c
	t.inner.Init(c)
}

func (t *tapPolicy) OnTick(now sim.Time) { t.inner.OnTick(now) }

func (t *tapPolicy) OnArrival(r *server.Request) { t.inner.OnArrival(r) }

func (t *tapPolicy) OnDispatch(r *server.Request, core int) { t.inner.OnDispatch(r, core) }

func (t *tapPolicy) OnComplete(r *server.Request, core int) {
	lat := (t.ctl.Now() - r.Arrive).Seconds()
	t.mean.Add(lat)
	t.p99.Add(lat)
	t.inner.OnComplete(r, core)
}
