package main

import (
	"runtime"
	"time"

	"github.com/deeppower/deeppower/internal/agent"
	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/baselines"
	"github.com/deeppower/deeppower/internal/ckpt"
	"github.com/deeppower/deeppower/internal/cluster"
	"github.com/deeppower/deeppower/internal/nn"
	"github.com/deeppower/deeppower/internal/rl"
	"github.com/deeppower/deeppower/internal/serve"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/stats"
)

// A probe is a fixed-size call loop straight into one layer's public API,
// independent of the workload it is reported beside. The paper's network and
// batch sizes: 8-dimensional state, 2-dimensional action, batch 64.
const (
	probeBatch     = 64
	probeStateDim  = agent.StateDim
	probeActionDim = agent.ActionDim
)

// probeRounds is how many times a probe's loop is timed; the fastest round
// is reported, as the reading least disturbed by the sandbox's other tenant.
const probeRounds = 3

// probe times ops calls of fn and returns nanoseconds and heap allocations
// per call.
func probe(ops int, fn func()) (ns, allocs float64) {
	ops = max(1, ops)
	fn() // grow scratch buffers outside the timed loop
	best := time.Duration(1<<63 - 1)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for r := 0; r < probeRounds; r++ {
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			fn()
		}
		best = min(best, time.Since(t0))
	}
	runtime.ReadMemStats(&ms1)
	return float64(best.Nanoseconds()) / float64(ops),
		float64(ms1.Mallocs-ms0.Mallocs) / float64(ops*probeRounds)
}

// runProbes fills every probe metric. sz.probeOps is the loop length of the
// cheapest probes (tens of nanoseconds per call); dearer ones divide it.
func runProbes(got values, sz sizing) {
	n := sz.probeOps
	rng := sim.NewRNG(shapeSeed).Stream("bench/probes")

	// sim: schedule one event and fire one, against a standing population.
	eng := sim.NewEngine()
	noop := func() {}
	const standing = 512
	for i := 0; i < standing; i++ {
		eng.At(sim.Time(i+1), noop)
	}
	got["sim.ns_per_event"], got["sim.allocs_per_event"] = probe(n, func() {
		eng.At(eng.Now()+standing, noop)
		eng.Step()
	})

	// server: the external-arrival entry the fleet and the daemon use.
	prof := serve.DefaultProfile()
	srvEng := sim.NewEngine()
	const injectBatch = 1000
	got["server.inject_ns"], _ = probe(n/injectBatch/10, func() {
		srvEng.Reset()
		srv, err := server.New(srvEng, server.Config{App: prof, Seed: shapeSeed, DiscardLatencies: true}, baselines.NewMaxFreq())
		if err != nil {
			panic(err) // a constant, valid configuration
		}
		if err := srv.BeginExternal(sim.Second); err != nil {
			panic(err)
		}
		for i := 0; i < injectBatch; i++ {
			if err := srv.Inject(sim.Time(i) * sim.Microsecond); err != nil {
				panic(err)
			}
		}
	})
	got["server.inject_ns"] /= injectBatch

	// serve: one bridge period of the simulated actuator, 50 arrivals.
	act, err := serve.NewSimActuator(server.Config{App: serve.DefaultProfile(), Seed: shapeSeed, LatencyCap: serveLatencyCap},
		baselines.NewMaxFreq())
	if err != nil {
		panic(err)
	}
	advances := max(1, n/200)
	if err := act.Begin(time.Duration(advances*(probeRounds+1)+2) * bridgePeriod); err != nil {
		panic(err)
	}
	at := time.Duration(0)
	ns, _ := probe(advances, func() {
		for i := 0; i < 50; i++ {
			if err := act.Inject(at + time.Duration(i)*20*time.Microsecond); err != nil {
				panic(err)
			}
		}
		at += bridgePeriod
		if err := act.Advance(at); err != nil {
			panic(err)
		}
	})
	got["serve.advance_us"] = ns / 1e3
	act.End()

	// rl: one DDPG update on a batch of 64, sampling, acting, on the learner
	// agent.New builds for the workloads' agentConfig (plain MLP actor), so
	// that update_ns times the trainers' update count is their update time.
	ddpg, err := rl.NewDDPG(rl.DDPGConfig{StateDim: probeStateDim, ActionDim: probeActionDim, Seed: shapeSeed})
	if err != nil {
		panic(err)
	}
	replay := rl.NewReplay(4096, rng.Stream("replay"))
	randVec := func(dim int) []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	for i := 0; i < 1024; i++ {
		replay.Push(rl.Transition{State: randVec(probeStateDim), Action: randVec(probeActionDim),
			Reward: rng.Float64(), NextState: randVec(probeStateDim)})
	}
	batch := make([]rl.Transition, probeBatch)
	replay.SampleInto(batch)
	got["rl.update_ns"], got["rl.update_allocs"] = probe(n/1000, func() { ddpg.Update(batch) })
	got["rl.sample_ns"], _ = probe(n/20, func() { replay.SampleInto(batch) })
	state := randVec(probeStateDim)
	got["rl.act_ns"], _ = probe(n/20, func() { ddpg.Act(state) })
	states8 := randVec(8 * probeStateDim)
	got["rl.act_batch8_ns"], _ = probe(n/100, func() { ddpg.ActBatch(states8, 8) })

	// nn: the paper's 32-24-16 network, forward and backward over a batch of
	// 64, one Adam step, one single-sample actor forward.
	mlp := nn.NewMLP([]int{probeStateDim, 32, 24, 16, probeActionDim}, nn.ReLU, nn.Sigmoid, rng.Stream("mlp"))
	x64 := randVec(probeBatch * probeStateDim)
	dy64 := randVec(probeBatch * probeActionDim)
	got["nn.forward_b64_ns"], _ = probe(n/400, func() { mlp.ForwardBatch(x64, probeBatch) })
	got["nn.backward_b64_ns"], _ = probe(n/400, func() {
		mlp.ZeroGrad()
		mlp.BackwardBatch(dy64, probeBatch)
	})
	adam := nn.NewAdam(mlp.Layers, 1e-3)
	got["nn.adam_step_ns"], _ = probe(n/200, adam.Step)
	actor := nn.NewPaperActor(probeStateDim, rng.Stream("actor"))
	got["nn.actor_forward_ns"], _ = probe(n/20, func() { actor.Forward(state) })

	// agent: one state observation from a server snapshot.
	obs := agent.NewObserver(10 * sim.Millisecond)
	snap := server.Snapshot{Now: sim.Second, QueueLen: 4,
		QueueSLARemaining: []sim.Time{sim.Millisecond, 2 * sim.Millisecond, 3 * sim.Millisecond, 4 * sim.Millisecond},
		CoreSLARemaining:  []sim.Time{5 * sim.Millisecond, 6 * sim.Millisecond},
		Counters:          server.Counters{Arrivals: 1000, Completions: 990}, Energy: 50}
	got["agent.observe_ns"], _ = probe(n/20, func() {
		snap.Counters.Arrivals += 10
		obs.Observe(snap)
	})

	// cluster: one power-aware routing decision over 16 shards.
	shards := make([]cluster.ShardState, 16)
	pending := make([]int, len(shards))
	for i := range shards {
		shards[i] = cluster.ShardState{ID: i, Cores: 4, Online: 4, Queue: i % 5, Busy: i % 4, Share: 1,
			EffCost: fleetPowerModel(i).CorePower(3.0, true)}
	}
	bal := &cluster.PowerAware{}
	got["cluster.pick_ns"], _ = probe(n/10, func() { pending[bal.Pick(0, shards, pending)%len(pending)]++ })

	// ckpt, stats, app: seal and open a policy-sized container, one P²
	// quantile update, one service-demand draw.
	payload := make([]byte, 12*1024)
	var sealed []byte
	got["ckpt.seal_open_ns"], _ = probe(n/400, func() {
		sealed = ckpt.SealInto(sealed[:0], ckpt.KindPolicy, payload)
		if _, _, err := ckpt.Open(sealed); err != nil {
			panic(err)
		}
	})
	p2 := stats.NewP2Quantile(0.99)
	got["stats.p2_add_ns"], _ = probe(n, func() { p2.Add(rng.Float64()) })
	xapian, err := app.ByName(app.Xapian)
	if err != nil {
		panic(err)
	}
	var work app.Work
	sampler, into := xapian.Sampler.(app.IntoSampler)
	got["app.sample_ns"], _ = probe(n, func() {
		if into {
			sampler.SampleInto(rng, &work)
		} else {
			work = xapian.Sampler.Sample(rng)
		}
	})
}
