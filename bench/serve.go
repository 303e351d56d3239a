package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/deeppower/deeppower/internal/control"
	"github.com/deeppower/deeppower/internal/fault"
	"github.com/deeppower/deeppower/internal/serve"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/stats"
	"github.com/deeppower/deeppower/internal/workload"
)

// serveParams is the daemon's policy: the thread controller at fixed
// parameters under the default guard.
var serveParams = control.Params{BaseFreq: 0.4, ScalingCoef: 0.5}

// serveConns is the generator's connection count. The pacer hands each
// millisecond's requests to one connection, round robin, so eight connections
// cost what one does; but serve.Generator's reader panics when a single read
// finds more than 8192 responses (stampQueue.popN does not cap at its scratch
// slice), which on one connection at the 80 k req/s peak takes a stall of
// 100 ms and happened in two of about 150 runs on this shared box. Spread in
// batches of 4096 over eight connections it takes 0.8 s.
const serveConns = 8

const (
	bridgePeriod    = time.Millisecond
	serveLatencyCap = 65536
	settleCap       = 10 * time.Second // how long the backend may take to drain
	replayDrain     = 100 * time.Millisecond
)

// daemonConfig is the one configuration both halves of the workload run on:
// the live daemon takes all of it, the virtual-time replay its backend half
// (profile, latency cap, bridge period, policy). Everything the replay needs
// is set here, nothing left to the daemon's defaults.
func daemonConfig(seed int64) serve.DaemonConfig {
	return serve.DaemonConfig{
		Addr:         "127.0.0.1:0",
		Method:       fmt.Sprintf("controller:%g,%g", serveParams.BaseFreq, serveParams.ScalingCoef),
		Profile:      serve.DefaultProfile(),
		BridgePeriod: bridgePeriod,
		LatencyCap:   serveLatencyCap,
		Seed:         seed,
	}
}

// replayPolicy builds the policy cfg.Method names. The daemon builds its own
// from the string (serve.Daemon.buildPolicy is unexported); the live phase
// checks that the two report the same name.
func replayPolicy(cfg serve.DaemonConfig) server.Policy {
	return fault.NewGuardedPolicy(control.NewThreadController(serveParams), cfg.GuardConfig)
}

// serveJob is the serve_open workload. Its live phase replays one diurnal
// period liveReplays times, open-loop over loopback against an
// in-process daemon: CPU per request and heap per replay, the costs of the
// HTTP, stamp-ring and bridge path, come from there. Arrival instants from
// sockets are not reproducible, so the simulated metrics, the digest check and
// rep_host_s come from its repetitions, which replay the same period's
// arrival process in virtual time through the same backend seam
// (serve.SimActuator, one Advance per bridge period). The live backend's own
// numbers are reported per layer only.
type serveJob struct {
	cfg    serve.DaemonConfig
	trace  *workload.Trace
	period time.Duration
	d      *serve.Daemon
	// sent is what the daemon's counters should hold: everything any
	// generator, the warm-up's included, has sent it.
	sent uint64
}

func serveTrace(period time.Duration, peakRPS float64) *workload.Trace {
	dc := workload.DefaultDiurnal()
	dc.Period = sim.Time(period)
	dc.Buckets = 24
	dc.Seed = shapeSeed
	return workload.Diurnal(dc).ScaleToPeak(peakRPS)
}

// setupServeOpen starts the daemon and sends it warm-up traffic at the
// trace's trough rate, so the measured period meets established connections'
// code paths, a grown stamp ring and a warm backend.
func setupServeOpen(sz sizing, seed int64) (job, error) {
	trace := serveTrace(sz.servePeriod, sz.servePeakRPS)
	cfg := daemonConfig(seed)
	d, err := serve.NewDaemon(cfg)
	if err != nil {
		return nil, err
	}
	if err := d.Start(); err != nil {
		return nil, err
	}
	j := &serveJob{cfg: cfg, trace: trace, period: sz.servePeriod, d: d}
	trough := trace.Rates[0]
	for _, r := range trace.Rates {
		trough = min(trough, r)
	}
	sum, err := serve.NewGenerator(serve.GenConfig{
		Addr: d.Addr(), Conns: serveConns, Duration: sz.serveWarm,
		Trace: workload.Constant(trough, sim.Time(sz.serveWarm)),
	}).Run()
	if err != nil {
		d.Stop()
		return nil, err
	}
	j.sent = sum.Sent
	if _, ok := j.settle(j.sent); !ok || sum.TransportErrors != 0 || sum.InFlight != 0 {
		d.Stop()
		return nil, fmt.Errorf("warm-up did not settle: %s", sum)
	}
	return j, nil
}

func (j *serveJob) close() { j.d.Stop() }

// settle polls the daemon until every request sent so far has been accepted
// on the wire, injected into the backend and completed, or settleCap passes.
func (j *serveJob) settle(sent uint64) (serve.Telemetry, bool) {
	deadline := time.Now().Add(settleCap)
	for {
		tel := j.d.Telemetry()
		if settled(tel, sent) {
			return tel, true
		}
		if time.Now().After(deadline) {
			return tel, false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// settled is wire conservation: accepted == arrivals == sent, nothing queued
// or in service.
func settled(tel serve.Telemetry, sent uint64) bool {
	return tel.Accepted == sent && tel.Arrivals == sent && tel.QueueLen == 0 && tel.BusyCores == 0
}

// liveResult is the live phase's record.
type liveResult struct {
	sent, completed, failed uint64
	// cpuUsPerReq is process CPU (user + system) per completed request, and
	// allocMB the heap allocated, from a replay's first send to settled: the
	// medians over the phase's replays.
	cpuUsPerReq float64
	allocMB     float64
	checks      []check
	layer       values
	notes       []string
}

// liveReplays is how many times the live phase replays the period; CPU per
// request is their median, which drops a replay the box's other tenant hit.
const liveReplays = 4

func (j *serveJob) live(tr *tracer) (liveResult, error) {
	// Client, daemon and bridge share one P for the phase. With two, the Go
	// scheduler puts the two ends of the connection on one thread or on two
	// for a whole run, and CPU per request is 3.0 or 4.5 us accordingly
	// (measured, median of three replays); with one, every run wakes
	// goroutines the same way and the ten-seed spread falls from 22% to 5%.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	// The traced run polls telemetry every 100 ms for the bridge's lag.
	var lags []float64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	liveSpan := -1
	if tr != nil {
		liveSpan = tr.begin("serve.live", -1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					id := tr.begin("serve.telemetry", liveSpan)
					lags = append(lags, j.d.Telemetry().BridgeLagMS)
					tr.end(id)
				}
			}
		}()
	}
	stopPoll := func() {
		close(stop)
		wg.Wait()
		if tr != nil {
			tr.end(liveSpan)
		}
	}

	var r liveResult
	var cpuUs, allocs, p50s, p99s []float64
	var rttMax float64
	var errs []string
	var transport, inFlight uint64
	var tel serve.Telemetry
	allSettled := true
	for i := 0; i < liveReplays; i++ {
		runtime.GC() // no replay pays for the previous one's garbage
		before := readUsage()
		sum, err := serve.NewGenerator(serve.GenConfig{
			Addr: j.d.Addr(), Conns: serveConns, Duration: j.period, Trace: j.trace,
		}).Run()
		if err != nil {
			stopPoll()
			return liveResult{}, err
		}
		j.sent += sum.Sent
		var ok bool
		tel, ok = j.settle(j.sent)
		allSettled = allSettled && ok
		after := readUsage()
		cpuUs = append(cpuUs, (after.cpu-before.cpu).Seconds()*1e6/float64(max(1, sum.Completed)))
		allocs = append(allocs, float64(after.alloc-before.alloc)/1e6)
		r.sent += sum.Sent
		r.completed += sum.Completed
		transport += sum.TransportErrors
		inFlight += sum.InFlight
		errs = append(errs, sum.Errors...)
		p50s, p99s, rttMax = append(p50s, sum.RTTP50MS), append(p99s, sum.RTTP99MS), max(rttMax, sum.RTTMaxMS)
	}
	stopPoll()

	r.failed = transport + inFlight + tel.BadRequests
	r.cpuUsPerReq, r.allocMB = median(cpuUs), median(allocs)
	replayName := replayPolicy(j.cfg).Name()
	r.checks = []check{
		{"serve_open: sent == completed, no transport errors, nothing in flight",
			r.sent == r.completed && transport == 0 && inFlight == 0,
			fmt.Sprintf("sent %d completed %d errors %d in flight %d %v", r.sent, r.completed, transport, inFlight, errs)},
		{"serve_open: daemon accepted == arrivals == sent once settled", allSettled,
			fmt.Sprintf("sent %d accepted %d arrivals %d queue %d busy %d after %v",
				j.sent, tel.Accepted, tel.Arrivals, tel.QueueLen, tel.BusyCores, settleCap)},
		{"serve_open: no bad requests, no inject errors", tel.BadRequests == 0 && tel.InjectErrors == 0,
			fmt.Sprintf("bad requests %d, inject errors %d", tel.BadRequests, tel.InjectErrors)},
		{"serve_open: the replay's policy and latency cap are the daemon's",
			tel.Policy == replayName && tel.LatencyCap == j.cfg.LatencyCap,
			fmt.Sprintf("daemon %s cap %d, replay %s cap %d", tel.Policy, tel.LatencyCap, replayName, j.cfg.LatencyCap)},
	}
	r.notes = []string{fmt.Sprintf("live phase: %d x %v open loop on %d connections, %d requests, rtt p50 %.4f ms p99 %.4f ms",
		liveReplays, j.period, serveConns, r.sent, median(p50s), median(p99s))}
	if tr != nil {
		var lagP50, lagMax float64
		if len(lags) > 0 {
			lagP50, lagMax = median(lags), stats.Max(lags)
		}
		offered := j.trace.MeanRate() * j.period.Seconds() * liveReplays
		r.layer = values{
			"serve.sent":                 float64(r.sent),
			"serve.completed":            float64(r.completed),
			"serve.errors":               float64(transport),
			"serve.in_flight":            float64(inFlight),
			"serve.offered_shortfall":    max(0, 1-float64(r.sent)/offered),
			"serve.cpu_us_per_req":       r.cpuUsPerReq,
			"serve.rtt_p50_ms":           median(p50s),
			"serve.rtt_p99_ms":           median(p99s),
			"serve.rtt_max_ms":           rttMax,
			"serve.bridge_lag_p50_ms":    lagP50,
			"serve.bridge_lag_max_ms":    lagMax,
			"serve.segments_run":         float64(tel.SegsRun),
			"serve.inject_errors":        float64(tel.InjectErrors),
			"serve.backend_p99_ms":       tel.LatP99MS,
			"serve.backend_timeout_rate": tel.TimeoutRate,
			"serve.backend_energy_j":     tel.EnergyJ,
			"serve.alloc_mb":             r.allocMB,
		}
	}
	return r, nil
}

// rep replays the live phase in virtual time: liveReplays periods of Poisson
// arrivals from the trace, injected at their own offsets, the backend
// advanced one bridge period at a time, then a short drain.
func (j *serveJob) rep(seed int64, tr *tracer) (outcome, error) {
	pol := replayPolicy(j.cfg)
	var tp *tracedPolicy
	if tr != nil {
		tp = newTracedPolicy(pol, tr)
		pol = tp
	}
	act, err := serve.NewSimActuator(server.Config{
		App: j.cfg.Profile, Seed: seed, LatencyCap: j.cfg.LatencyCap,
	}, pol)
	if err != nil {
		return outcome{}, err
	}
	span := liveReplays * j.period
	end := span + replayDrain
	period := j.cfg.BridgePeriod
	if err := act.Begin(end + period); err != nil {
		return outcome{}, err
	}
	arrivals := workload.NewArrivals(j.trace, sim.NewRNG(seed).Stream("bench/serve-arrivals"))
	next := arrivals.Next()
	for t := period; t <= end; t += period {
		for next < sim.Time(t) && next < sim.Time(span) {
			if err := act.Inject(time.Duration(next)); err != nil {
				return outcome{}, err
			}
			next = arrivals.Next()
		}
		if tr != nil {
			tp.parent = tr.begin(spanRun, tr.top)
		}
		if err := act.Advance(t); err != nil {
			return outcome{}, err
		}
		if tr != nil {
			tr.end(tp.parent)
		}
	}
	var st serve.BackendStats
	act.Stats(&st)
	res := act.End()

	var d digester
	d.serverResult(res)
	failed, ck := conservation("serve_open replay", res.Counters, st.QueueLen, st.BusyCores)
	layer := values{"server.latency_dropped": float64(res.Counters.LatencyDropped)}
	if tp != nil {
		layer["control.ticks"] = float64(tp.ticks)
	}
	return outcome{
		digest:      d.sum(),
		energyJ:     res.EnergyJ,
		p99Ms:       res.Latency.P99 * 1e3,
		timeoutRate: res.TimeoutRate,
		ops:         res.Counters.Completions,
		requests:    res.Counters.Completions,
		attempted:   res.Counters.Arrivals,
		failed:      failed,
		checks:      []check{ck},
		layer:       layer,
	}, nil
}
