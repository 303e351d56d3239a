package rl

import (
	"math"
	"testing"
	"time"
	_ "unsafe" // for go:linkname

	"github.com/deeppower/deeppower/internal/sim"
)

const benchBatch = 64

// nnUseAVX2 is internal/nn's kernel switch (dense_amd64.go), which
// BenchmarkTrainStep's portable path turns off for its own duration.
//
//go:linkname nnUseAVX2 github.com/deeppower/deeppower/internal/nn.useAVX2
var nnUseAVX2 bool

// BenchmarkTrainStep compares one full trainer update on the batched
// kernels against the per-sample reference, for every variant, at the
// paper's network sizes and a batch of 64. The batched update runs twice:
// on the kernels the machine selects (batched: AVX2 where available) and
// on the portable Go kernels (portable), so the pair reads as the vector
// kernels' factor; off amd64 and under -race the two are the same code.
func BenchmarkTrainStep(b *testing.B) {
	rng := sim.NewRNG(77)
	for _, c := range learnerCases {
		batch := mkTransitions(rng, benchBatch, 6, caseActionDim, c.discrete(), caseNumActions)
		for _, path := range []string{"batched", "portable", "persample"} {
			b.Run(c.name+"/"+path, func(b *testing.B) {
				if path == "portable" {
					defer func(on bool) { nnUseAVX2 = on }(nnUseAVX2)
					nnUseAVX2 = false
				}
				tr := c.build(b, 6, false, 1)
				step := func() { tr.update(batch) }
				if path == "persample" {
					step = func() { tr.reference(batch) }
				}
				step() // warm-up grows the scratch arenas
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
			})
		}
	}
}

// updatePhases names the stretches of one actor–critic update that
// BenchmarkUpdatePhases times, in the order Update runs them.
var updatePhases = [...]string{"guard", "target", "critic", "policy", "soft"}

// phasedUpdate is ActorCritic.Update with a clock read between its phases,
// adding each phase's nanoseconds to ns: the guard (snapshot, finite sweep),
// the bootstrap target (head and target-critic forwards, y), the critic
// regression (forward, backward, Adam — per critic), the policy step (the
// head's improve: actor forward, critic forward and action gradient, actor
// backward, Adam, and a deterministic head's own target blend) and the
// critics' soft target updates. BenchmarkUpdatePhases checks it against
// Update bit for bit before timing anything, so it cannot drift.
func phasedUpdate(l *ActorCritic, batch []Transition, ns *[len(updatePhases)]int64) (criticLoss, actorLoss float64) {
	mark := time.Now()
	lap := func(phase int) {
		now := time.Now()
		ns[phase] += now.Sub(mark).Nanoseconds()
		mark = now
	}
	n := len(batch)
	inv := 1 / float64(n)
	l.guard.snapshot()
	l.updates++
	ar := &l.arena
	ar.load(batch, l.cfg.StateDim, l.cfg.ActionDim, l.Actor.OutDim())
	lap(0)

	a2, logPi := l.head.target(l, n)
	for k, t := range l.Targets {
		l.qT[k] = t.ForwardBatch(ar.next, a2, n)
	}
	for i := 0; i < n; i++ {
		y := ar.rewards[i]
		if !ar.done[i] {
			q := l.qT[0][i]
			for _, qk := range l.qT[1:] {
				q = math.Min(q, qk[i])
			}
			y += gamma * (q - l.v.alpha*logPi[i])
		}
		ar.y[i] = y
	}
	lap(1)

	for k, c := range l.Critics {
		q := c.ForwardBatch(ar.states, ar.actions, n)
		var loss float64
		for i := 0; i < n; i++ {
			diff := q[i] - ar.y[i]
			loss += diff * diff * inv
			ar.dq[i] = 2 * diff * inv
		}
		c.BackwardBatch(ar.dq, n)
		l.criticOpts[k].Step()
		criticLoss += loss
	}
	criticLoss /= float64(len(l.Critics))
	lap(2)

	actorLoss = math.NaN()
	finite := isFinite(criticLoss)
	if l.updates%l.v.delay == 0 {
		actorLoss = l.head.improve(l, n)
		finite = finite && isFinite(actorLoss)
		lap(3)
		for k, t := range l.Targets {
			t.SoftUpdateFrom(l.Critics[k], tau)
		}
		lap(4)
	}
	diverged := l.guard.diverged(finite)
	lap(0)
	if diverged {
		return 0, 0
	}
	return criticLoss, actorLoss
}

// BenchmarkUpdatePhases splits one update of every actor–critic variant into
// the phases of updatePhases and reports each as <phase>-ns/op — the table a
// learner change reads to see which phase it moved. (TD3's policy and soft
// phases run on every second update; their figures are per update, not per
// policy step.)
func BenchmarkUpdatePhases(b *testing.B) {
	rng := sim.NewRNG(83)
	for _, c := range learnerCases {
		if c.discrete() {
			continue
		}
		batch := mkTransitions(rng, benchBatch, 6, caseActionDim, false, 0)
		b.Run(c.name, func(b *testing.B) {
			phased, whole := c.build(b, 6, false, 1).(acTrainer), c.build(b, 6, false, 1).(acTrainer)
			var ns [len(updatePhases)]int64
			for warm := 0; warm < 2; warm++ { // grows the arenas; TD3 reaches a policy step
				pc, pa := phasedUpdate(phased.ActorCritic, batch, &ns)
				wc, wa := whole.Update(batch)
				if math.Float64bits(pc) != math.Float64bits(wc) ||
					(math.Float64bits(pa) != math.Float64bits(wa) && !(math.IsNaN(pa) && math.IsNaN(wa))) {
					b.Fatalf("phasedUpdate lost (%v, %v), Update (%v, %v): the copy has drifted", pc, pa, wc, wa)
				}
			}
			ns = [len(updatePhases)]int64{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				phasedUpdate(phased.ActorCritic, batch, &ns)
			}
			for p, name := range updatePhases {
				b.ReportMetric(float64(ns[p])/float64(b.N), name+"-ns/op")
			}
		})
	}
}

// BenchmarkActorInference measures the control-loop hot path: a single
// deterministic policy evaluation for both actor topologies.
func BenchmarkActorInference(b *testing.B) {
	rng := sim.NewRNG(79)
	state := make([]float64, 6)
	for i := range state {
		state[i] = rng.Uniform(0, 1)
	}
	for _, twoHead := range []struct {
		name string
		on   bool
	}{{"mlp", false}, {"twohead", true}} {
		b.Run(twoHead.name, func(b *testing.B) {
			d, err := NewDDPG(DDPGConfig{StateDim: 6, ActionDim: 2, TwoHeadActor: twoHead.on, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Actor.Forward(state)
			}
		})
	}
}
