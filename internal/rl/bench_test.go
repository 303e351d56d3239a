package rl

import (
	"testing"

	"github.com/deeppower/deeppower/internal/sim"
)

const benchBatch = 64

// BenchmarkTrainStep compares one full trainer update on the batched
// kernels against the per-sample reference, for every variant, at the
// paper's network sizes and a batch of 64.
func BenchmarkTrainStep(b *testing.B) {
	rng := sim.NewRNG(77)
	for _, c := range learnerCases {
		batch := mkTransitions(rng, benchBatch, 6, caseActionDim, c.discrete(), caseNumActions)
		for _, path := range []string{"batched", "persample"} {
			b.Run(c.name+"/"+path, func(b *testing.B) {
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
