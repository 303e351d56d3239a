package server

import (
	"fmt"

	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/stats"
)

// Result summarizes one simulation run with the metrics the paper reports
// (§5.2): power, latency mean/tail, and timeout percentage.
type Result struct {
	Policy   string
	App      string
	Duration sim.Time
	Counters Counters

	// EnergyJ is socket energy over the measured window (post-warmup).
	EnergyJ float64
	// AvgPowerW is EnergyJ divided by the measured window.
	AvgPowerW float64
	// AvgFreqGHz is the time-weighted mean core frequency.
	AvgFreqGHz float64

	// Latency is the distribution of end-to-end latencies in seconds.
	Latency stats.Summary
	// Latencies retains raw samples unless DiscardLatencies was set.
	Latencies []float64
	// TimeoutRate is timeouts/completions.
	TimeoutRate float64
	// TimeoutBudgetMet is the paper's Eq. 2 QoS constraint: timeouts must
	// not exceed 1% of requests over the run.
	TimeoutBudgetMet bool
	// MeanTailRatio is mean latency / 99th-percentile latency; the paper's
	// Fig. 7c "mean/tail rate" (higher is better: short requests finish
	// fast relative to the tail).
	MeanTailRatio float64
	// SLA echoes the application's requirement for report rendering.
	SLA sim.Time
	// SLAMet reports whether p99 latency is within the SLA.
	SLAMet bool

	// MeanCriticalPathSec is the mean critical path (longest chain of stage
	// processing durations) of completed DAG jobs, 0 on flat profiles. The
	// critical path lower-bounds the achievable end-to-end latency at the
	// observed frequencies, so the gap to Latency.Mean is queueing and
	// precedence stall.
	MeanCriticalPathSec float64
	// MeanCriticalPathShare is the mean of critical-path/latency per job.
	MeanCriticalPathShare float64
	// Jobs retains per-job traces when Config.RecordJobs was set.
	Jobs []JobTrace

	// ClassEnergyJ is cumulative post-warmup energy per core class on
	// heterogeneous servers, nil otherwise.
	ClassEnergyJ []float64

	// Series is the periodic time series when enabled.
	Series *Series
	// FreqTrace is the per-tick frequency trace when enabled.
	FreqTrace *FreqTrace

	// FaultStats holds the fault injector's counters when Config.Faults
	// was set (faults injected by kind), nil otherwise.
	FaultStats map[string]uint64
	// PolicyStats holds counters exported by policies implementing
	// StatsReporter (e.g. the guarded-policy watchdog), nil otherwise.
	PolicyStats map[string]float64
}

// latBlocks retains latency samples in chunked, individually preallocated
// blocks: appends never copy previously stored samples (no slice-doubling
// churn in long runs) and one block allocation amortizes over latBlockSize
// completions. The flat view is materialized once, at result construction,
// where the blocks double as the completion-order copy (see summarize).
// Emptied blocks wait in spare until a later block fills; a server seeds
// spare from its run store, so a warm run allocates no block at all.
type latBlocks struct {
	blocks [][]float64
	spare  [][]float64 // emptied blocks (length 0), taken before allocating
	n      int         // total samples stored
}

// latBlockSize is the per-block capacity; 4096 float64s = one 32 KiB block.
const latBlockSize = 4096

func (l *latBlocks) add(v float64) {
	if len(l.blocks) == 0 || len(l.blocks[len(l.blocks)-1]) == latBlockSize {
		l.blocks = append(l.blocks, l.newBlock())
	}
	b := len(l.blocks) - 1
	l.blocks[b] = append(l.blocks[b], v)
	l.n++
}

// newBlock returns an empty block, a spare one when there is one.
func (l *latBlocks) newBlock() []float64 {
	if n := len(l.spare); n > 0 {
		b := l.spare[n-1]
		l.spare = l.spare[:n-1]
		return b
	}
	return make([]float64, 0, latBlockSize)
}

// flatten materializes the samples as one contiguous slice, nil when empty.
func (l *latBlocks) flatten() []float64 {
	if l.n == 0 {
		return nil
	}
	out := make([]float64, 0, l.n)
	for _, b := range l.blocks {
		out = append(out, b...)
	}
	return out
}

// summarize returns the samples in completion order and their Summary,
// holding two copies of each sample at most: the flat slice is summarized
// (sorted) in place, then the blocks are copied back over it to restore
// completion order, and the blocks are emptied into spare.
func (l *latBlocks) summarize() ([]float64, stats.Summary) {
	flat := l.flatten()
	sum := stats.SummarizeInPlace(flat)
	rest := flat
	for _, b := range l.blocks {
		rest = rest[copy(rest, b):]
		l.spare = append(l.spare, b[:0])
	}
	l.blocks, l.n = nil, 0
	return flat, sum
}

func (s *Server) buildResult(start, duration sim.Time) *Result {
	measured := duration - s.cfg.Warmup
	if measured <= 0 {
		measured = duration
	}
	energy := s.meter.Energy() - s.warmupEnergy
	latencies, latency := s.latencies.summarize()
	res := &Result{
		Policy:    s.policy.Name(),
		App:       s.prof.Name,
		Duration:  duration,
		Counters:  s.counters,
		EnergyJ:   energy,
		AvgPowerW: energy / measured.Seconds(),
		AvgFreqGHz: s.totalCycles /
			(float64(len(s.cores)) * duration.Seconds()),
		Latency:   latency,
		Latencies: latencies,
		SLA:       s.prof.SLA,
		Series:    s.series,
		FreqTrace: s.freqTrace,
	}
	if s.cfg.DiscardLatencies && s.latMean.N() > 0 {
		// Streamed digests replace the (discarded) sample set.
		res.Latency.N = s.latMean.N()
		res.Latency.Mean = s.latMean.Mean()
		res.Latency.Std = s.latMean.StdDev()
		res.Latency.P99 = s.latP99.Value()
	}
	if s.counters.JobCompletions > 0 {
		// DAG mode: timeouts are end-to-end job violations.
		res.TimeoutRate = float64(s.counters.Timeouts) / float64(s.counters.JobCompletions)
		res.MeanCriticalPathSec = s.cpMean.Mean()
		res.MeanCriticalPathShare = s.cpShare.Mean()
	} else if s.counters.Completions > 0 {
		res.TimeoutRate = float64(s.counters.Timeouts) / float64(s.counters.Completions)
	}
	res.Jobs = s.jobTraces
	if s.classEnergy != nil {
		res.ClassEnergyJ = make([]float64, len(s.classEnergy))
		for i, e := range s.classEnergy {
			res.ClassEnergyJ[i] = e - s.warmupClassEnergy[i]
		}
	}
	res.TimeoutBudgetMet = res.TimeoutRate <= 0.01
	if res.Latency.P99 > 0 {
		res.MeanTailRatio = res.Latency.Mean / res.Latency.P99
	}
	res.SLAMet = res.Latency.P99 <= s.prof.SLA.Seconds()
	if s.cfg.Faults != nil {
		res.FaultStats = s.cfg.Faults.Stats()
	}
	if sr, ok := s.policy.(StatsReporter); ok {
		res.PolicyStats = sr.ResultStats()
	}
	return res
}

// String renders a one-line report.
func (r *Result) String() string {
	return fmt.Sprintf(
		"%s/%s: power=%.1fW p99=%v mean=%v timeout=%.3f%% slaMet=%v reqs=%d",
		r.App, r.Policy, r.AvgPowerW,
		sim.Seconds(r.Latency.P99), sim.Seconds(r.Latency.Mean),
		r.TimeoutRate*100, r.SLAMet, r.Counters.Completions)
}

// SeriesRow is one sampled interval of the run.
type SeriesRow struct {
	At          sim.Time
	RPS         float64 // arrivals per second in the interval
	PowerW      float64 // average socket power in the interval
	QueueLen    int
	AvgFreqGHz  float64 // mean of core target frequencies at sample time
	Timeouts    uint64  // timeouts in the interval
	Completions uint64
}

// Series is a periodically sampled run time series.
type Series struct {
	Interval sim.Time
	Rows     []SeriesRow

	nextAt       sim.Time
	lastCounters Counters
	lastEnergy   float64
}

func newSeries(interval sim.Time) *Series {
	return &Series{Interval: interval, nextAt: interval}
}

func (ser *Series) maybeSample(now sim.Time, s *Server) {
	if now < ser.nextAt {
		return
	}
	c := s.counters
	e := s.meter.Energy()
	dt := ser.Interval.Seconds()
	var freqSum float64
	for _, core := range s.cores {
		freqSum += float64(core.Target())
	}
	ser.Rows = append(ser.Rows, SeriesRow{
		At:          now,
		RPS:         float64(c.Arrivals-ser.lastCounters.Arrivals) / dt,
		PowerW:      (e - ser.lastEnergy) / dt,
		QueueLen:    s.queue.Len(),
		AvgFreqGHz:  freqSum / float64(len(s.cores)),
		Timeouts:    c.Timeouts - ser.lastCounters.Timeouts,
		Completions: c.Completions - ser.lastCounters.Completions,
	})
	ser.lastCounters = c
	ser.lastEnergy = e
	ser.nextAt += ser.Interval
}

// FreqTrace records per-core target frequencies at every tick inside a
// window, plus request begin/end markers (Figs. 4, 9, 10, 11).
type FreqTrace struct {
	From, To sim.Time
	Times    []sim.Time
	// Freqs[i] is the frequency of each core at Times[i], GHz.
	Freqs [][]float64
	// Begins and Ends are (time, core) markers of request dispatch and
	// completion within the window.
	Begins, Ends []FreqMark
}

// FreqMark is one request lifecycle marker.
type FreqMark struct {
	At   sim.Time
	Core int
}

func newFreqTrace(from, to sim.Time, cores int) *FreqTrace {
	return &FreqTrace{From: from, To: to}
}

func (ft *FreqTrace) inWindow(t sim.Time) bool { return t >= ft.From && t <= ft.To }

func (ft *FreqTrace) sample(now sim.Time, cores []*cpu.Core) {
	if !ft.inWindow(now) {
		return
	}
	fs := make([]float64, len(cores))
	for i, c := range cores {
		fs[i] = float64(c.Target())
	}
	ft.Times = append(ft.Times, now)
	ft.Freqs = append(ft.Freqs, fs)
}

func (ft *FreqTrace) markBegin(now sim.Time, core int) {
	if ft.inWindow(now) {
		ft.Begins = append(ft.Begins, FreqMark{At: now, Core: core})
	}
}

func (ft *FreqTrace) markEnd(now sim.Time, core int) {
	if ft.inWindow(now) {
		ft.Ends = append(ft.Ends, FreqMark{At: now, Core: core})
	}
}
