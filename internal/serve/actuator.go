package serve

import (
	"time"

	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// BackendStats is the per-control-period reading the bridge takes from the
// backend: cumulative counters, instantaneous load, and the server's
// streaming latency digests. One flat struct, filled in place — telemetry
// never allocates per period.
type BackendStats struct {
	Counters   server.Counters
	QueueLen   int
	BusyCores  int
	EnergyJ    float64
	AvgFreqGHz float64
	LatMeanSec float64
	LatP99Sec  float64
}

// SimActuator executes requests on simulated DVFS cores: the reproduction's
// server driven through its external-arrival interface
// (BeginExternal/Inject/RunSegment), with virtual time locked to the wall
// clock by the bridge. The daemon's bridge drives it with wall-clock offsets
// (durations since serving began), which map one-to-one onto virtual time,
// so the policy, guard, power model, and accounting are exactly the ones
// every simulated experiment uses. All methods are called from the single
// bridge goroutine and need no locking.
type SimActuator struct {
	eng *sim.Engine
	srv *server.Server
}

// NewSimActuator builds the simulated backend running pol.
func NewSimActuator(cfg server.Config, pol server.Policy) (*SimActuator, error) {
	eng := sim.NewEngine()
	srv, err := server.New(eng, cfg, pol)
	if err != nil {
		return nil, err
	}
	return &SimActuator{eng: eng, srv: srv}, nil
}

// Begin arms the backend to serve for at most horizon.
func (a *SimActuator) Begin(horizon time.Duration) error {
	return a.srv.BeginExternal(sim.Time(horizon))
}

// Inject admits one request at the given offset since Begin. Offsets before
// the backend's current position are clamped forward (late delivery, never
// time travel); offsets at or past the horizon fail.
func (a *SimActuator) Inject(at time.Duration) error {
	t := sim.Time(at)
	if now := a.eng.Now(); t < now {
		t = now
	}
	return a.srv.Inject(t)
}

// Advance runs the backend up to the given offset. Events scheduled exactly
// at the offset fire inside the call.
func (a *SimActuator) Advance(until time.Duration) error {
	a.srv.RunSegment(sim.Time(until))
	return nil
}

// Stats fills st with the backend's current reading. The latency digests
// are the server's own, over every completion (the daemon runs no warmup),
// so they reflect what clients experience in both engaged and safe mode.
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
	st.LatMeanSec, st.LatP99Sec = a.srv.LatencyDigests()
}

// End stops the backend and returns its final result. The daemon stops when
// told to, not at its horizon, so accounting settles at the backend's
// current position.
func (a *SimActuator) End() *server.Result { return a.srv.EndNow() }
