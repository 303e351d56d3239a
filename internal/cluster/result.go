package cluster

import (
	"fmt"
	"sort"

	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// EpochRow is one fleet time-series sample: telemetry summed over all shards
// across SeriesEvery control epochs.
type EpochRow struct {
	// At is the virtual time at the end of the sampled window.
	At sim.Time
	// Arrivals, Completions, Timeouts are fleet totals within the window.
	Arrivals    uint64
	Completions uint64
	Timeouts    uint64
	// EnergyJ is fleet socket energy consumed within the window.
	EnergyJ float64
	// PowerW is EnergyJ over the window length.
	PowerW float64
	// Queue is the total queued-request count at the window's end.
	Queue int
}

// Result summarizes one fleet campaign.
type Result struct {
	// Balancer is the routing policy's name.
	Balancer string
	// Shards is the fleet size.
	Shards int
	// Duration and Epoch echo the campaign config.
	Duration sim.Time
	Epoch    sim.Time

	// TotalRouted is the number of fleet requests the balancer dispatched.
	TotalRouted uint64
	// Routed[i] is how many of them went to shard i.
	Routed []uint64

	// Arrivals, Completions, Timeouts, InFlight are fleet request totals at
	// campaign end. Timeouts are completions past the SLA deadline (a subset
	// of Completions, matching the single-server accounting); InFlight are
	// requests still queued or in service when the campaign ended.
	Arrivals    uint64
	Completions uint64
	Timeouts    uint64
	InFlight    uint64

	// EnergyJ is total fleet socket energy (per-shard measured windows, so
	// warmup exclusions apply) and AvgPowerW the fleet-wide average draw —
	// the sum of per-shard average powers over their measured windows.
	EnergyJ   float64
	AvgPowerW float64

	// TimeoutRate is fleet timeouts / completions, and TimeoutBudgetMet the
	// paper's Eq. 2 1% budget applied fleet-wide.
	TimeoutRate      float64
	TimeoutBudgetMet bool

	// WorstP99 and MedianP99 are the highest and median per-shard p99
	// latencies in seconds. A fleet has no single exact p99 without merging
	// every sample; per-shard digests bracket it and the worst shard is
	// what an operator pages on.
	WorstP99  float64
	MedianP99 float64

	// CappedWrites counts governor writes clamped by the global tier's
	// power-budget frequency ceilings, summed over shards.
	CappedWrites uint64

	// PerShard holds each shard's full single-server result.
	PerShard []*server.Result
	// Series is the fleet time series (one row per SeriesEvery epochs).
	Series []EpochRow
}

// finish folds the per-shard results, each ended in its shard's unit of the
// final epoch, into the fleet summary.
func (r *Result) finish(shards []*shard) {
	r.Routed = make([]uint64, len(shards))
	r.PerShard = make([]*server.Result, len(shards))
	p99s := make([]float64, 0, len(shards))
	for i, sh := range shards {
		sr := sh.result
		r.PerShard[i] = sr
		r.Routed[i] = sh.routed
		c := sr.Counters
		r.Arrivals += c.Arrivals
		r.Completions += c.Completions
		r.Timeouts += c.Timeouts
		r.InFlight += c.Arrivals - c.Completions
		r.EnergyJ += sr.EnergyJ
		r.AvgPowerW += sr.AvgPowerW
		r.CappedWrites += c.CappedWrites
		if sr.Latency.N > 0 {
			p99s = append(p99s, sr.Latency.P99)
		}
	}
	if r.Completions > 0 {
		r.TimeoutRate = float64(r.Timeouts) / float64(r.Completions)
	}
	r.TimeoutBudgetMet = r.TimeoutRate <= 0.01
	if len(p99s) > 0 {
		sort.Float64s(p99s)
		r.WorstP99 = p99s[len(p99s)-1]
		r.MedianP99 = p99s[len(p99s)/2]
	}
}

// String renders a one-line fleet report.
func (r *Result) String() string {
	return fmt.Sprintf(
		"fleet/%s: shards=%d routed=%d energy=%.1fkJ avg=%.1fW worstP99=%v medP99=%v timeout=%.3f%% budgetMet=%v",
		r.Balancer, r.Shards, r.TotalRouted, r.EnergyJ/1e3, r.AvgPowerW,
		sim.Seconds(r.WorstP99), sim.Seconds(r.MedianP99),
		r.TimeoutRate*100, r.TimeoutBudgetMet)
}
