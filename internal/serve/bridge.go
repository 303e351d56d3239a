package serve

import (
	"sync"
	"time"

	"github.com/deeppower/deeppower/internal/server"
)

// stamp is one batch of fast-path admissions: n requests whose arrival the
// HTTP layer observed at the same wall instant (one read syscall). Batching
// per read collapses ring traffic to a handful of entries per millisecond
// at any request rate.
type stamp struct {
	nanos int64 // wall offset since the bridge epoch, nanoseconds
	n     uint32
}

// stampRing hands admission stamps from connection goroutines to the bridge
// with one short critical section per read batch. Double-buffered: the
// bridge swaps the append buffer out under the lock and drains the full one
// outside it, so producers never wait on injection work and the steady
// state allocates nothing once both buffers reach their high-water mark.
type stampRing struct {
	mu    sync.Mutex
	cur   []stamp
	spare []stamp
}

func newStampRing() *stampRing {
	return &stampRing{
		cur:   make([]stamp, 0, 4096),
		spare: make([]stamp, 0, 4096),
	}
}

// Push records n admissions observed at wall offset nanos.
func (r *stampRing) Push(nanos int64, n uint32) {
	r.mu.Lock()
	r.cur = append(r.cur, stamp{nanos: nanos, n: n})
	r.mu.Unlock()
}

// Drain returns all pushed stamps. The returned slice is valid until the
// next Drain call.
func (r *stampRing) Drain() []stamp {
	r.mu.Lock()
	out := r.cur
	r.cur = r.spare[:0]
	r.mu.Unlock()
	r.spare = out
	return out
}

// bridgeCmd is control-plane work (policy reload, registry ops, synchronous
// telemetry reads) executed on the bridge goroutine between segments, where
// it is ordered against every policy callback.
type bridgeCmd struct {
	fn    func() error
	reply chan error
}

// Bridge locks the simulated backend's virtual time to the wall clock. A
// single goroutine loops at the bridge period: it drains the admission
// stamps the HTTP layer pushed, injects each batch at its observed wall
// offset, and advances the backend to "now". Virtual time therefore trails the wall
// clock by at most one period plus scheduling jitter — that bound is the
// serving mode's determinism boundary: behind it the simulation stays
// exactly the reproduction's (same engine, same policy, same accounting);
// ahead of it arrival instants come from real sockets and are not
// reproducible run to run.
type Bridge struct {
	act    *SimActuator
	period time.Duration
	snapEv time.Duration

	stamps *stampRing
	wire   *WireCounters
	stats  statsCell
	meta   func(*Telemetry) // daemon fills policy name/version fields

	start    time.Time
	cmds     chan bridgeCmd
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	result   *server.Result

	injected   uint64
	injectErrs uint64
	segs       uint64
	lastLag    time.Duration
}

// newBridge wires a bridge over act. period is the segment cadence (default
// 1ms), snapEvery the telemetry cadence (default 100ms).
func newBridge(act *SimActuator, wire *WireCounters, period, snapEvery time.Duration) *Bridge {
	if period <= 0 {
		period = time.Millisecond
	}
	if snapEvery <= 0 {
		snapEvery = 100 * time.Millisecond
	}
	return &Bridge{
		act:    act,
		period: period,
		snapEv: snapEvery,
		stamps: newStampRing(),
		wire:   wire,
		cmds:   make(chan bridgeCmd, 16),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Start arms the backend and launches the bridge loop. horizon bounds how
// long the daemon may serve (virtual event times must stay under it).
func (b *Bridge) Start(horizon time.Duration) error {
	if err := b.act.Begin(horizon); err != nil {
		return err
	}
	b.start = time.Now()
	go b.run()
	return nil
}

// Epoch returns the wall instant offsets are measured from.
func (b *Bridge) Epoch() time.Time { return b.start }

// Admit records a batch of n fast-path admissions observed at wall offset
// nanos. Called from connection goroutines; never blocks on the backend.
func (b *Bridge) Admit(nanos int64, n uint32) { b.stamps.Push(nanos, n) }

// Do runs fn on the bridge goroutine between segments and returns its
// error. It is the ordering point for policy hot-swaps and registry
// operations: fn never races a policy callback.
func (b *Bridge) Do(fn func() error) error {
	cmd := bridgeCmd{fn: fn, reply: make(chan error, 1)}
	select {
	case b.cmds <- cmd:
	case <-b.done:
		return errBridgeStopped
	}
	select {
	case err := <-cmd.reply:
		return err
	case <-b.done:
		return errBridgeStopped
	}
}

// Stop drains outstanding arrivals, advances the backend to the current
// wall offset, settles accounting, and returns the backend's final result.
// Idempotent: later calls return the first call's result.
func (b *Bridge) Stop() *server.Result {
	b.stopOnce.Do(func() { close(b.stop) })
	<-b.done
	return b.result
}

// Telemetry synchronously builds a fresh telemetry record on the bridge
// goroutine (or from final state after Stop).
func (b *Bridge) Telemetry() Telemetry {
	var t Telemetry
	err := b.Do(func() error {
		b.fill(&t)
		return nil
	})
	if err != nil {
		// Bridge already stopped: fill from the settled backend. The
		// actuator is quiescent, so reading it is race-free.
		b.fill(&t)
	}
	return t
}

var errBridgeStopped = errStopped{}

type errStopped struct{}

func (errStopped) Error() string { return "serve: bridge stopped" }

func (b *Bridge) run() {
	defer close(b.done)
	timer := time.NewTimer(b.period)
	defer timer.Stop()
	nextSnap := b.snapEv
	for {
		select {
		case <-b.stop:
			b.advanceTo(time.Since(b.start))
			b.result = b.act.End()
			b.publish(time.Since(b.start))
			return
		case cmd := <-b.cmds:
			cmd.reply <- cmd.fn()
		case <-timer.C:
			target := time.Since(b.start)
			b.advanceTo(target)
			if target >= nextSnap {
				b.publish(target)
				nextSnap = target + b.snapEv
			}
			b.lastLag = time.Since(b.start) - target
			timer.Reset(b.period)
		}
	}
}

// advanceTo injects every drained stamp batch and runs the backend up to
// the target offset.
func (b *Bridge) advanceTo(target time.Duration) {
	for _, st := range b.stamps.Drain() {
		at := time.Duration(st.nanos)
		for i := uint32(0); i < st.n; i++ {
			if err := b.act.Inject(at); err != nil {
				b.injectErrs++
			} else {
				b.injected++
			}
		}
	}
	b.act.Advance(target)
	b.segs++
}

func (b *Bridge) publish(target time.Duration) {
	var t Telemetry
	t.UptimeSec = target.Seconds()
	b.fill(&t)
	b.stats.Publish(&t)
}

// fill populates t from the wire counters and the backend. Runs on the
// bridge goroutine (or post-Stop).
func (b *Bridge) fill(t *Telemetry) {
	if t.UptimeSec == 0 && !b.start.IsZero() {
		t.UptimeSec = time.Since(b.start).Seconds()
	}
	t.Accepted = b.wire.Accepted.Load()
	t.Responded = b.wire.Responded.Load()
	t.ControlReqs = b.wire.Control.Load()
	t.BadRequests = b.wire.BadRequests.Load()
	t.ConnsOpened = b.wire.ConnsOpened.Load()
	t.ConnsClosed = b.wire.ConnsClosed.Load()
	t.ReadBytes = b.wire.ReadBytes.Load()
	t.WrittenBytes = b.wire.WrittenBytes.Load()

	var st BackendStats
	b.act.Stats(&st)
	t.Arrivals = st.Counters.Arrivals
	t.Completions = st.Counters.Completions
	t.Timeouts = st.Counters.Timeouts
	t.LatencyDropped = st.Counters.LatencyDropped
	t.QueueLen = st.QueueLen
	t.BusyCores = st.BusyCores
	t.InFlight = st.Counters.Arrivals - st.Counters.Completions
	t.EnergyJ = st.EnergyJ
	t.AvgFreqGHz = st.AvgFreqGHz
	if st.Counters.Completions > 0 {
		t.TimeoutRate = float64(st.Counters.Timeouts) / float64(st.Counters.Completions)
	}
	t.LatMeanMS = st.LatMeanSec * 1e3
	t.LatP99MS = st.LatP99Sec * 1e3
	t.BridgeLagMS = float64(b.lastLag.Nanoseconds()) / 1e6
	t.SegsRun = b.segs
	t.InjectErrors = b.injectErrs
	if b.meta != nil {
		b.meta(t)
	}
}
