package server_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/baselines"
	"github.com/deeppower/deeppower/internal/control"
	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/fault"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

// resultDigest hashes everything a run reports that the request path
// computes: counters, energy, the latency summary, every retained latency,
// and per-class energy, all as exact bit patterns.
func resultDigest(res *server.Result) string {
	h := sha256.New()
	var b [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	c := res.Counters
	for _, v := range []uint64{c.Arrivals, c.Dispatched, c.Completions, c.Timeouts,
		c.JobArrivals, c.JobCompletions, c.LatencyDropped} {
		u(v)
	}
	f(res.EnergyJ)
	f(res.AvgFreqGHz)
	l := res.Latency
	u(uint64(l.N))
	for _, v := range []float64{l.Mean, l.Std, l.Min, l.Max, l.P50, l.P90, l.P95, l.P99} {
		f(v)
	}
	u(uint64(len(res.Latencies)))
	for _, v := range res.Latencies {
		f(v)
	}
	u(uint64(len(res.ClassEnergyJ)))
	for _, v := range res.ClassEnergyJ {
		f(v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// parkingController is a thread controller that also re-places worker
// threads mid-run: every 50 ticks it cycles through placements that park
// busy and idle cores of both classes and re-enable them.
type parkingController struct {
	*control.ThreadController
	ticks int
}

func (p *parkingController) OnTick(now sim.Time) {
	p.ticks++
	if p.ticks%50 == 0 {
		placements := [][]int{{4, 4}, {2, 4}, {4, 1}, {1, 1}, {0, 3}, {3, 0}}
		p.Ctl.SetPlacement(placements[(p.ticks/50)%len(placements)])
	}
	p.ThreadController.OnTick(now)
}

// neighbourWriter writes the frequency of a core other than the one being
// dispatched from inside OnDispatch (and the dispatched core's own score
// after it): the neighbour's completion must be rescheduled by that write.
type neighbourWriter struct {
	*control.ThreadController
}

func (p *neighbourWriter) OnDispatch(r *server.Request, core int) {
	n := p.Ctl.NumCores()
	p.Ctl.SetScore((core+1)%n, float64(r.ID%11)/10)
	p.Ctl.SetFreq((core+n-1)%n, cpu.Freq(0.8+float64(r.ID%14)*0.1))
	p.ThreadController.OnDispatch(r, core)
}

// snapshotHasher folds the Snapshot feed into a running hash every few
// ticks, so the per-core and per-queue SLA budgets are part of the fence.
type snapshotHasher struct {
	server.Policy
	ctl   server.Control
	ticks int
	sum   uint64
}

func (p *snapshotHasher) Init(c server.Control) {
	p.ctl = c
	p.Policy.Init(c)
}

func (p *snapshotHasher) OnTick(now sim.Time) {
	p.Policy.OnTick(now)
	p.ticks++
	if p.ticks%7 != 0 {
		return
	}
	snap := p.ctl.Snapshot()
	mix := func(v uint64) { p.sum = (p.sum ^ v) * 1099511628211 }
	mix(uint64(snap.QueueLen))
	mix(uint64(len(snap.CoreSLARemaining)))
	if len(snap.CoreSLARemaining) != p.ctl.BusyCores() {
		mix(^uint64(0))
	}
	for _, v := range snap.CoreSLARemaining {
		mix(uint64(v))
	}
	for _, v := range snap.QueueSLARemaining {
		mix(uint64(v))
	}
	mix(math.Float64bits(snap.Energy))
}

func xapian(t *testing.T, workers int) *app.Profile {
	t.Helper()
	prof, err := app.ByName(app.Xapian)
	if err != nil {
		t.Fatal(err)
	}
	prof.Workers = workers
	return prof
}

func diurnal(prof *app.Profile, load float64, period sim.Time) *workload.Trace {
	cfg := workload.DefaultDiurnal()
	cfg.Period = period
	cfg.Buckets = 10
	cfg.Seed = 3
	return workload.Diurnal(cfg).ScaleToPeak(load * prof.MaxCapacity(prof.RefFreq, 3))
}

// TestRequestPathDigests fences the request path — arrival, dispatch, DVFS
// write, tick, completion, result — against constants captured before the
// path was made to do each step once (one completion event per dispatch, the
// in-place reschedule, the level table, the idle set, the in-place sort).
// Every simulated output of every scenario must stay bit-identical.
func TestRequestPathDigests(t *testing.T) {
	type scenario struct {
		name string
		run  func(t *testing.T) (*server.Result, uint64)
		want string
		snap uint64
	}
	tc := func() *control.ThreadController {
		return control.NewThreadController(control.Params{BaseFreq: 0.3, ScalingCoef: 0.6})
	}
	runTrace := func(t *testing.T, cfg server.Config, pol server.Policy, trace *workload.Trace, dur sim.Time) (*server.Result, uint64) {
		t.Helper()
		sh := &snapshotHasher{Policy: pol}
		srv, err := server.New(sim.NewEngine(), cfg, sh)
		if err != nil {
			t.Fatal(err)
		}
		res, err := srv.Run(trace, dur)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.Completions == 0 {
			t.Fatal("degenerate scenario: no completions")
		}
		return res, sh.sum
	}
	scenarios := []scenario{
		{
			name: "xapian20-controller",
			run: func(t *testing.T) (*server.Result, uint64) {
				prof := xapian(t, 20)
				return runTrace(t, server.Config{App: prof, Seed: 11, Warmup: 300 * sim.Millisecond},
					tc(), diurnal(prof, 0.8, 3*sim.Second), 3*sim.Second)
			},
			want: "7fdd678ee50cbacbd885e3626e0196ac278b854c4aeb2df81d981b0e32f6dd7f",
			snap: 0x6821a99ee5364ca,
		},
		{
			name: "dag",
			run: func(t *testing.T) (*server.Result, uint64) {
				d, err := app.ParseDAG("diamond", "gate(300us); auth(600us):gate; search(1200us):gate; merge(400us):auth,search")
				if err != nil {
					t.Fatal(err)
				}
				prof := &app.Profile{Name: "dag", SLA: 6 * sim.Millisecond, Workers: 6, RefFreq: 2.1,
					ContentionCoef: 0.2, DAG: d}
				return runTrace(t, server.Config{App: prof, Seed: 12, RecordJobs: true},
					tc(), workload.Step(600, 1800, 2*sim.Second, 8), 2*sim.Second)
			},
			want: "348f461c5b2e51c63a5ccc5a50e9371eff662bfcdec909b31a88aa577db5344a",
			snap: 0xb2b5b483fe44e093,
		},
		{
			name: "hetero-parking",
			run: func(t *testing.T) (*server.Result, uint64) {
				topo := cpu.DefaultHetero(4, 4)
				prof := xapian(t, 8)
				return runTrace(t, server.Config{App: prof, Seed: 13, Topology: &topo},
					&parkingController{ThreadController: tc()},
					diurnal(prof, 0.6, 2*sim.Second), 2*sim.Second)
			},
			want: "1b0678d16472cd6315e5f0aeba702af63c2d2925c153832972dac30a041093a5",
			snap: 0xeca2ef5aa804a88e,
		},
		{
			name: "faults",
			run: func(t *testing.T) (*server.Result, uint64) {
				prof := xapian(t, 8)
				inj, err := fault.NewInjector(fault.Plan{
					Seed: 14,
					Actuation: fault.ActuationPlan{
						ExtraLatency:  300 * sim.Microsecond,
						JitterLatency: 2 * sim.Millisecond,
						DropProb:      0.15,
						StuckProb:     0.002,
						StuckFor:      20 * sim.Millisecond,
					},
					Sensor: fault.SensorPlan{EnergyNoiseFrac: 0.05, StaleProb: 0.1},
					Cores: fault.CorePlan{
						MTBF:         150 * sim.Millisecond,
						MTTR:         40 * sim.Millisecond,
						ThrottleCap:  1.2,
						ThrottleMTBF: 100 * sim.Millisecond,
						ThrottleMTTR: 30 * sim.Millisecond,
					},
				}, prof.Workers)
				if err != nil {
					t.Fatal(err)
				}
				res, snap := runTrace(t, server.Config{App: prof, Seed: 14, Faults: inj},
					tc(), diurnal(prof, 0.6, 2*sim.Second), 2*sim.Second)
				for _, k := range []string{"fault.dropped_transitions", "fault.delayed_transitions",
					"fault.core_failures", "fault.throttle_episodes", "fault.stale_snapshots"} {
					if res.FaultStats[k] == 0 {
						t.Errorf("fault scenario injected no %s", k)
					}
				}
				return res, snap
			},
			want: "5a6c8e343f0e78b91864a4f0edda9db2c03a2619a31416ad5b9e0abebd274bd9",
			snap: 0x4e20c19292203108,
		},
		{
			name: "sleep",
			run: func(t *testing.T) (*server.Result, uint64) {
				prof := xapian(t, 8)
				return runTrace(t, server.Config{App: prof, Seed: 15},
					baselines.NewSleepWrapper(tc()),
					diurnal(prof, 0.25, 2*sim.Second), 2*sim.Second)
			},
			want: "b71623616dc8a7dc14ac563d5ce738c4d0ad47b7e484b85b7fba0d1f866aa487",
			snap: 0xdb23b826682544f7,
		},
		{
			name: "external-inject",
			run: func(t *testing.T) (*server.Result, uint64) {
				prof := xapian(t, 6)
				sh := &snapshotHasher{Policy: tc()}
				eng := sim.NewEngine()
				srv, err := server.New(eng, server.Config{App: prof, Seed: 16, LatencyCap: 3000}, sh)
				if err != nil {
					t.Fatal(err)
				}
				dur := 2 * sim.Second
				if err := srv.BeginExternal(dur); err != nil {
					t.Fatal(err)
				}
				rng := sim.NewRNG(16).Stream("inject")
				// Inject one 100 ms window at a time, interleaved with the run.
				for win := sim.Time(0); win < dur; win += 100 * sim.Millisecond {
					for at := win; ; {
						at += sim.Seconds(rng.Exp(2500))
						if at >= win+100*sim.Millisecond || at >= dur {
							break
						}
						if err := srv.Inject(at); err != nil {
							t.Fatal(err)
						}
					}
					srv.RunSegment(win + 100*sim.Millisecond)
				}
				res := srv.End()
				if res.Counters.LatencyDropped == 0 {
					t.Error("external scenario never reached its latency cap")
				}
				return res, sh.sum
			},
			want: "647b2ce005607b29dd6c9f185318efb5995cf0c0f6b4c84f3cab8dd88219c423",
			snap: 0x158dfefad3b2bf36,
		},
		{
			name: "neighbour-writer",
			run: func(t *testing.T) (*server.Result, uint64) {
				prof := xapian(t, 5)
				return runTrace(t, server.Config{App: prof, Seed: 17},
					&neighbourWriter{ThreadController: tc()},
					diurnal(prof, 0.7, 2*sim.Second), 2*sim.Second)
			},
			want: "9741df7965ee631c0144d1baf41b30e0de951a58b55adc23246f1726d947702a",
			snap: 0xeac0d92c44fdf7ee,
		},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			res, snap := sc.run(t)
			if got := resultDigest(res); got != sc.want || snap != sc.snap {
				t.Errorf("%s: digest %s snapshots %#x, want %s %#x (completions %d, energy %v)",
					sc.name, got, snap, sc.want, sc.snap, res.Counters.Completions, res.EnergyJ)
			}
		})
	}
}
