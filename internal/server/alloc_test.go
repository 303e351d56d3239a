package server

import (
	"math"
	"runtime"
	"testing"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/stats"
	"github.com/deeppower/deeppower/internal/workload"
)

// latencyRecorder keeps every completion's latency in seconds, in
// completion order.
type latencyRecorder struct {
	maxFreqPolicy
	secs []float64
}

func (p *latencyRecorder) OnComplete(r *Request, core int) {
	p.secs = append(p.secs, r.Latency().Seconds())
}

// TestEndKeepsOneSampleCopy: End allocates one flat copy of the retained
// latencies and no more (the summary sorts that copy in place), hands them
// back in completion order, and summarizes exactly that sample set.
func TestEndKeepsOneSampleCopy(t *testing.T) {
	prof := fixedApp(100*sim.Microsecond, 4, 10*sim.Millisecond)
	prof.Sampler = expSampler{mean: 100 * sim.Microsecond}
	p := &latencyRecorder{}
	_, s := mustServer(t, Config{App: prof, Seed: 5}, p)
	if err := s.Begin(workload.Constant(25_000, sim.Second), 5*sim.Second); err != nil {
		t.Fatal(err)
	}
	s.RunSegment(5 * sim.Second)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := s.End()
	runtime.ReadMemStats(&after)

	n := len(res.Latencies)
	if n < 100_000 {
		t.Fatalf("%d retained samples, want at least 100000", n)
	}
	if delta, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*n+256<<10); delta > limit {
		t.Errorf("End allocated %d bytes for %d samples, want at most %d (one copy)", delta, n, limit)
	}
	if len(p.secs) != n {
		t.Fatalf("Result.Latencies has %d samples, the policy saw %d completions", n, len(p.secs))
	}
	for i, v := range res.Latencies {
		if v != p.secs[i] {
			t.Fatalf("Result.Latencies[%d] = %v, completion %d had %v: not in completion order", i, v, i, p.secs[i])
		}
	}
	want := stats.SummarizeInPlace(append([]float64(nil), res.Latencies...))
	got := res.Latency
	if got.N != want.N {
		t.Errorf("Latency.N = %d, want %d", got.N, want.N)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"Mean", got.Mean, want.Mean}, {"Std", got.Std, want.Std},
		{"Min", got.Min, want.Min}, {"Max", got.Max, want.Max},
		{"P50", got.P50, want.P50}, {"P90", got.P90, want.P90},
		{"P95", got.P95, want.P95}, {"P99", got.P99, want.P99},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Errorf("Latency.%s = %v, the sorted copy gives %v", f.name, f.got, f.want)
		}
	}
}

// snapshotAllocProbe measures Snapshot's allocations once, at the first
// tick past at that finds both a queue and a busy core.
type snapshotAllocProbe struct {
	maxFreqPolicy
	at       sim.Time
	measured bool
	allocs   float64
	snap     Snapshot
}

func (p *snapshotAllocProbe) OnTick(now sim.Time) {
	srv := p.Ctl.(*Server)
	if p.measured || now < p.at || srv.QueueLen() == 0 || srv.BusyCores() == 0 {
		return
	}
	p.allocs = testing.AllocsPerRun(50, func() { p.snap = srv.Snapshot() })
	p.measured = true
}

// TestSnapshotSteadyStateZeroAllocs: after one warm call, Snapshot fills
// server-owned feeds and allocates nothing, homogeneous or heterogeneous.
func TestSnapshotSteadyStateZeroAllocs(t *testing.T) {
	hetero := cpu.DefaultHetero(2, 2)
	for _, tc := range []struct {
		name string
		topo *cpu.Topology
	}{{"homogeneous", nil}, {"heterogeneous", &hetero}} {
		t.Run(tc.name, func(t *testing.T) {
			prof := fixedApp(50*sim.Millisecond, 4, 20*sim.Millisecond)
			p := &snapshotAllocProbe{at: 300 * sim.Millisecond}
			_, s := mustServer(t, Config{App: prof, Seed: 4, Topology: tc.topo}, p)
			if _, err := s.Run(workload.Constant(200, sim.Second), sim.Second); err != nil {
				t.Fatal(err)
			}
			if !p.measured {
				t.Fatal("probe never saw a queue and a busy core")
			}
			if p.allocs != 0 {
				t.Errorf("Snapshot allocated %v times per call, want 0", p.allocs)
			}
			if len(p.snap.QueueSLARemaining) != p.snap.QueueLen || len(p.snap.CoreSLARemaining) == 0 {
				t.Errorf("feeds not filled: queue %d/%d, cores %d",
					len(p.snap.QueueSLARemaining), p.snap.QueueLen, len(p.snap.CoreSLARemaining))
			}
			if (tc.topo != nil) != (len(p.snap.Classes) > 0) {
				t.Errorf("Classes = %v with topology %v", p.snap.Classes, tc.topo)
			}
		})
	}
}

// expIntoSampler is expSampler refilling a request's Work in place, as the
// application samplers do, so a run's requests allocate no feature vectors.
type expIntoSampler struct{ expSampler }

func (e expIntoSampler) SampleInto(r *sim.RNG, w *app.Work) {
	w.ServiceRef = sim.Seconds(r.Exp(1 / e.mean.Seconds()))
	w.Features = append(w.Features[:0], 1)
}

// TestWarmRunAllocatesOnlyResult: a run after one with the same config finds
// its latency blocks and requests in the run store the first run's End
// handed back, so from New through End it allocates the Result's one flat
// copy of the samples and a fixed overhead, not the blocks as well.
func TestWarmRunAllocatesOnlyResult(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// A sync.Pool item put on one P sits in that P's private slot, which no
	// other P takes, so a goroutine moved between End and New could miss
	// the store. With one P the hand-off is certain.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prof := fixedApp(100*sim.Microsecond, 4, 10*sim.Millisecond)
	prof.Sampler = expIntoSampler{expSampler{mean: 100 * sim.Microsecond}}
	cfg := Config{App: prof, Seed: 5}
	eng := sim.NewEngine()
	run := func() *Result {
		eng.Reset()
		s, err := New(eng, cfg, &maxFreqPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(workload.Constant(25_000, sim.Second), 5*sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := run()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	warm := run()
	runtime.ReadMemStats(&after)

	n := len(warm.Latencies)
	if n < 100_000 {
		t.Fatalf("%d retained samples, want at least 100000", n)
	}
	if n != len(cold.Latencies) || warm.Latency != cold.Latency {
		t.Fatalf("warm run differs from the cold one: %d samples %+v, cold %d %+v",
			n, warm.Latency, len(cold.Latencies), cold.Latency)
	}
	if delta, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*n+256<<10); delta > limit {
		t.Errorf("warm run allocated %d bytes for %d samples, want at most %d (the Result's copy)", delta, n, limit)
	}
}
