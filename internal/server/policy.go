package server

import (
	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/sim"
)

// Control is the handle a power-management policy uses to observe the system
// and actuate per-core DVFS. It corresponds to the "server collects
// comprehensive information ... and sends it to DeepPower framework" feed
// plus the frequency-scaling interface of the paper's Fig. 3.
type Control interface {
	// Now returns the current virtual time.
	Now() sim.Time
	// NumCores returns the number of worker cores.
	NumCores() int
	// Ladder returns the DVFS operating points.
	Ladder() cpu.Ladder
	// SLA returns the application's latency requirement.
	SLA() sim.Time
	// RefFreq returns the frequency reference service times are defined
	// at (the profiling frequency).
	RefFreq() cpu.Freq

	// SetFreq requests frequency f on a core (quantized to the ladder).
	SetFreq(core int, f cpu.Freq)
	// SetTurbo engages the turbo frequency on a core.
	SetTurbo(core int)
	// SetScore applies the thread-controller mapping: scores >= 1 engage
	// turbo, otherwise the score interpolates between ladder Min and Max
	// (Algorithm 1, lines 6–10).
	SetScore(core int, score float64)
	// Freq returns a core's current target frequency.
	Freq(core int) cpu.Freq
	// Sleep puts an idle core into a C-state (the §6 sleep-state
	// extension); it reports false if the core is busy. The core wakes
	// automatically — paying the state's wake-up latency — when a request
	// is dispatched to it.
	Sleep(core int, state cpu.CState) bool
	// CoreCState returns a core's current sleep state.
	CoreCState(core int) cpu.CState

	// Topology returns the heterogeneous core topology, or nil when all
	// cores are one homogeneous class on the config ladder.
	Topology() *cpu.Topology
	// SetPlacement requests how many worker threads run on each core class
	// (one count per topology class). Counts are clamped to each class's
	// size; a request disabling every thread is ignored. Disabled cores
	// drain their current request but take no new work until re-enabled.
	// A no-op on homogeneous servers.
	SetPlacement(counts []int)
	// CoreParked reports whether placement has disabled a core.
	CoreParked(core int) bool

	// CoreRequest returns the request a core is processing, or nil.
	CoreRequest(core int) *Request
	// QueueLen returns the number of queued (undispatched) requests.
	QueueLen() int
	// QueuePeek returns the i-th queued request (0 = head), or nil.
	QueuePeek(i int) *Request
	// BusyCores returns how many cores are processing a request.
	BusyCores() int

	// Counters returns cumulative arrival/completion/timeout counts.
	Counters() Counters
	// Snapshot captures the full system-information feed (queue and
	// in-service SLA budgets) the DeepPower state observer consumes. Its
	// slices (QueueSLARemaining, CoreSLARemaining, Classes) are valid only
	// until the next Snapshot call: a caller that keeps them must copy them.
	Snapshot() Snapshot
	// Energy returns cumulative socket energy in joules (the RAPL read).
	Energy() float64
	// PredictService returns the wall-clock service time the request's
	// remaining work would take at frequency f, given the contended
	// reference service time. Policies use it for deadline math.
	PredictService(ref sim.Time, f cpu.Freq) sim.Time
}

// Counters are cumulative event counts, cheap to copy. On a DAG-profile
// server Arrivals/Dispatched/Completions count stage requests (the units
// the FIFO and workers see) while JobArrivals/JobCompletions count whole
// stage graphs; Timeouts then counts jobs whose end-to-end latency exceeded
// the SLA, since no single stage has an SLA of its own.
type Counters struct {
	Arrivals    uint64
	Dispatched  uint64
	Completions uint64
	Timeouts    uint64 // completions whose latency exceeded the SLA
	// JobArrivals and JobCompletions count DAG jobs (0 on flat profiles).
	JobArrivals    uint64
	JobCompletions uint64
	// LatencyDropped counts completions whose latency sample was not
	// retained because Config.LatencyCap was reached. The streaming
	// mean/p99 digests still include them.
	LatencyDropped uint64
	// CappedWrites counts governor writes the platform frequency ceiling
	// (Server.SetFreqCeiling) clamped.
	CappedWrites uint64
}

// Policy is a power-management strategy plugged into the server. All
// methods are invoked from the simulation thread; implementations must not
// retain the *Request pointers beyond the callback unless documented. A
// completed Request is recycled for a later arrival of the same run and,
// once the run ends, for the runs of later servers, so a retained pointer
// would read another request's fields, possibly another server's.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Init is called once before the simulation starts.
	Init(c Control)
	// OnTick fires every server tick (the paper's ShortTime, default 1 ms).
	OnTick(now sim.Time)
	// OnArrival fires when a request enters the queue.
	OnArrival(r *Request)
	// OnDispatch fires when a worker starts a request.
	OnDispatch(r *Request, core int)
	// OnComplete fires when a request finishes.
	OnComplete(r *Request, core int)
}

// BasePolicy is a no-op Policy scaffold for embedding: concrete policies
// override only the hooks they need.
type BasePolicy struct{ Ctl Control }

// Name implements Policy.
func (b *BasePolicy) Name() string { return "base" }

// Init implements Policy.
func (b *BasePolicy) Init(c Control) { b.Ctl = c }

// OnTick implements Policy.
func (b *BasePolicy) OnTick(sim.Time) {}

// OnArrival implements Policy.
func (b *BasePolicy) OnArrival(*Request) {}

// OnDispatch implements Policy.
func (b *BasePolicy) OnDispatch(*Request, int) {}

// OnComplete implements Policy.
func (b *BasePolicy) OnComplete(*Request, int) {}
