package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/control"
	"github.com/deeppower/deeppower/internal/fault"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

// capRecorder is a power-aware balancer that also logs, at the first arrival
// it routes in an epoch, each shard's frequency ceiling as the fleet tier
// reports it, and counts how often a ceiling tightened and lifted between
// consecutive routed epochs. The snapshot is fixed for the whole epoch, so
// this is the log a per-arrival observer would write.
type capRecorder struct {
	PowerAware
	last      []float64
	log       []float64
	tightened int
	lifted    int
}

func (b *capRecorder) Route(at []sim.Time, shards []ShardState, dst []int) {
	if len(at) == 0 {
		return
	}
	if b.last == nil {
		b.last = make([]float64, len(shards))
	}
	for i, st := range shards {
		prev, cur := b.last[i], st.FreqCapGHz
		switch {
		case cur != 0 && (prev == 0 || cur < prev):
			b.tightened++
		case prev != 0 && (cur == 0 || cur > prev):
			b.lifted++
		}
		if cur != prev {
			b.log = append(b.log, float64(at[0]), float64(i), cur)
		}
		b.last[i] = cur
	}
	b.PowerAware.Route(at, shards, dst)
}

// fleetDigest hashes what a fleet campaign reports: every shard's counters,
// energy and latency summary, the routing split, the fleet series, the
// capped-write count and the ceiling trajectory the balancer saw — all as
// exact bit patterns.
func fleetDigest(res *Result, capLog []float64) string {
	h := sha256.New()
	var b [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	for _, sr := range res.PerShard {
		c := sr.Counters
		for _, v := range []uint64{c.Arrivals, c.Dispatched, c.Completions, c.Timeouts,
			c.JobArrivals, c.JobCompletions, c.LatencyDropped} {
			u(v)
		}
		f(sr.EnergyJ)
		f(sr.AvgPowerW)
		f(sr.AvgFreqGHz)
		l := sr.Latency
		u(uint64(l.N))
		for _, v := range []float64{l.Mean, l.Std, l.Min, l.Max, l.P50, l.P90, l.P95, l.P99} {
			f(v)
		}
	}
	for _, n := range res.Routed {
		u(n)
	}
	for _, r := range res.Series {
		u(uint64(r.At))
		u(r.Arrivals)
		u(r.Completions)
		u(r.Timeouts)
		f(r.EnergyJ)
		f(r.PowerW)
		u(uint64(r.Queue))
	}
	u(res.CappedWrites)
	u(uint64(len(capLog)))
	for _, v := range capLog {
		f(v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFleetDigests fences the fleet's enforcement of the global tier's
// frequency ceilings against constants captured before the ceiling moved
// from a per-shard fault-seam wrapper into the server. Three campaigns of
// thread-controller shards — uncapped, under a binding power budget whose
// ceilings both tighten and lift, and the same budget under a fault
// campaign — must stay bit-identical.
func TestFleetDigests(t *testing.T) {
	const (
		shards  = 6
		workers = 4
		dur     = 3 * sim.Second
	)
	prof, err := app.ByName(app.Xapian)
	if err != nil {
		t.Fatal(err)
	}
	peak := float64(shards) * prof.MaxCapacity(prof.RefFreq, 3) * float64(workers) / float64(prof.Workers)
	plan := fault.Plan{
		Actuation: fault.ActuationPlan{
			ExtraLatency:  300 * sim.Microsecond,
			JitterLatency: 2 * sim.Millisecond,
			DropProb:      0.1,
		},
		Cores: fault.CorePlan{
			MTBF:         400 * sim.Millisecond,
			MTTR:         50 * sim.Millisecond,
			ThrottleCap:  1.4,
			ThrottleMTBF: 300 * sim.Millisecond,
			ThrottleMTTR: 60 * sim.Millisecond,
		},
	}
	campaign := func(t *testing.T, budgetW float64, faults bool) (*Result, *capRecorder) {
		t.Helper()
		cfgs := make([]ShardConfig, shards)
		for i := range cfgs {
			p := *prof
			p.Workers = workers
			cfgs[i] = ShardConfig{
				Server: server.Config{
					App:  &p,
					Seed: sim.SubSeed(21, fmt.Sprintf("shard/%d", i)),
				},
				Policy: control.NewThreadController(control.Params{BaseFreq: 0.6, ScalingCoef: 0.8}),
			}
			if faults {
				pl := plan
				pl.Seed = int64(100 + i)
				inj, err := fault.NewInjector(pl, workers)
				if err != nil {
					t.Fatal(err)
				}
				cfgs[i].Server.Faults = inj
			}
		}
		bal := &capRecorder{}
		res, err := Run(context.Background(), Config{
			Trace:    workload.Step(0.25*peak, 0.8*peak, sim.Second, 10),
			Duration: dur,
			Epoch:    50 * sim.Millisecond,
			Seed:     21,
			Balancer: bal,
			Global:   &GlobalConfig{Every: 1, PowerBudgetW: budgetW},
		}, cfgs, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completions == 0 {
			t.Fatal("degenerate campaign: no completions")
		}
		return res, bal
	}
	cases := []struct {
		name    string
		budgetW float64
		faults  bool
		want    string
	}{
		{"uncapped", 0, false, "7e8e8717f6c8f3b085ed31d4cc7afb501916516b86c9cb91855caab3d8e17480"},
		{"budget", 140, false, "2a4af6482c06f2b40f581ec064ca6cdba48637f064ec0db00e4a58674ceafa1a"},
		{"budget-faults", 140, true, "cd241c5fe973f76ac47e18197f7a8e48ae89ec7644b776e3c5e3073610a197de"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, bal := campaign(t, tc.budgetW, tc.faults)
			if got := fleetDigest(res, bal.log); got != tc.want {
				t.Errorf("digest %s, want %s (completions %d, energy %v, capped %d, tightened %d, lifted %d)",
					got, tc.want, res.Completions, res.EnergyJ, res.CappedWrites, bal.tightened, bal.lifted)
			}
			if tc.budgetW > 0 && (res.CappedWrites == 0 || bal.tightened == 0 || bal.lifted == 0) {
				t.Errorf("budget never bound both ways: capped writes %d, tightened %d, lifted %d",
					res.CappedWrites, bal.tightened, bal.lifted)
			}
			if tc.budgetW == 0 && res.CappedWrites != 0 {
				t.Errorf("uncapped campaign clamped %d writes", res.CappedWrites)
			}
			for i, sr := range res.PerShard {
				if !tc.faults && sr.FaultStats != nil {
					t.Errorf("fault-free shard %d reports fault stats %v", i, sr.FaultStats)
				}
				if tc.faults && sr.FaultStats["fault.core_failures"] == 0 {
					t.Errorf("shard %d: fault campaign failed no core", i)
				}
			}
		})
	}
}
