package rl

import (
	"fmt"
	"math"
	"testing"

	"github.com/deeppower/deeppower/internal/nn"
	"github.com/deeppower/deeppower/internal/sim"
)

// mkTransitions builds a deterministic minibatch with a mix of terminal and
// non-terminal rows. For discrete agents the action is a single index.
func mkTransitions(rng *sim.RNG, n, stateDim, actionDim int, discrete bool, numActions int) []Transition {
	batch := make([]Transition, n)
	for i := range batch {
		tr := Transition{
			State:     make([]float64, stateDim),
			NextState: make([]float64, stateDim),
			Reward:    rng.Uniform(-1, 1),
			Done:      i%5 == 3,
		}
		for j := range tr.State {
			tr.State[j] = rng.Uniform(0, 1)
			tr.NextState[j] = rng.Uniform(0, 1)
		}
		if discrete {
			tr.Action = []float64{float64(rng.Intn(numActions))}
		} else {
			tr.Action = make([]float64, actionDim)
			for j := range tr.Action {
				tr.Action[j] = rng.Uniform(0, 1)
			}
		}
		batch[i] = tr
	}
	return batch
}

// bitEqSlice fails unless two float slices match bit-for-bit.
func bitEqSlice(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: batched %v vs per-sample %v", what, i, got[i], want[i])
		}
	}
}

func bitEqLayers(t *testing.T, what string, got, want []*nn.Dense) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: layer count %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		bitEqSlice(t, what+" W", got[i].W, want[i].W)
		bitEqSlice(t, what+" B", got[i].B, want[i].B)
	}
}

func bitEqLoss(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: batched %v vs per-sample %v", what, got, want)
	}
}

// TestBatchBitIdentity trains two identically-seeded learners — one on the
// batched Update, one on the per-sample reference — and requires both losses
// of every step and every weight of every live and target network to stay
// bit-identical. The rows cover both actor topologies, the twin critics, the
// delayed actor update (its NaN "no actor loss" included), the RNG draw order
// of TD3's target smoothing and SAC's reparameterized draws (noise for
// non-terminal next states, then all rows in the actor pass), SAC's masked
// min-critic backward, and both DQN bootstrap paths.
func TestBatchBitIdentity(t *testing.T) {
	for _, c := range learnerCases {
		t.Run(c.name, func(t *testing.T) {
			bat, ref := c.build(t, 6, false, 99), c.build(t, 6, false, 99)
			rng := sim.NewRNG(7)
			for step := 0; step < 5; step++ {
				batch := mkTransitions(rng, 32, 6, caseActionDim, c.discrete(), caseNumActions)
				cB, aB := bat.update(batch)
				cR, aR := ref.reference(batch)
				bitEqLoss(t, "critic loss", cB, cR)
				if !math.IsNaN(aB) || !math.IsNaN(aR) {
					bitEqLoss(t, "actor loss", aB, aR)
				}
			}
			got, want := bat.nets(), ref.nets()
			for i := range want {
				bitEqLayers(t, fmt.Sprintf("network %d", i), got[i], want[i])
			}
		})
	}
}

// TestActionGradMatchesFullBackward: the policy step's critic pass,
// ActionGradBatch, returns exactly the action columns the full per-sample
// backward produces — for dense rows, rows masked out with a zero dQ (SAC's
// min-critic mask) and a −0 — and writes no weight gradient on the way.
func TestActionGradMatchesFullBackward(t *testing.T) {
	const n, stateDim, actionDim = 33, 6, 2
	rng := sim.NewRNG(41)
	ref := NewCritic(stateDim, actionDim, [3]int{32, 24, 16}, rng)
	bat := ref.Clone()
	states, actions := randStates(rng, n, stateDim), randStates(rng, n, actionDim)
	dq := make([]float64, n)
	for i := range dq {
		dq[i] = rng.Uniform(-1, 1)
		if i%3 == 1 {
			dq[i] = 0
		}
	}
	dq[5] = math.Copysign(0, -1)

	var want []float64
	for b := 0; b < n; b++ {
		ref.Forward(states[b*stateDim:(b+1)*stateDim], actions[b*actionDim:(b+1)*actionDim])
		_, da := ref.Backward(dq[b])
		want = append(want, da...)
	}
	bat.ForwardBatch(states, actions, n)
	bitEqSlice(t, "dQ/da", bat.ActionGradBatch(dq, n), want)
	for i, l := range bat.Layers() {
		bitEqSlice(t, fmt.Sprintf("layer %d GW", i), l.GW, make([]float64, len(l.GW)))
		bitEqSlice(t, fmt.Sprintf("layer %d GB", i), l.GB, make([]float64, len(l.GB)))
	}

	// The regression backward on the same forward accumulates what the
	// reference did, the action-gradient pass having left nothing behind.
	bat.BackwardBatch(dq, n)
	for i, l := range bat.Layers() {
		bitEqSlice(t, fmt.Sprintf("layer %d GW", i), l.GW, ref.Layers()[i].GW)
		bitEqSlice(t, fmt.Sprintf("layer %d GB", i), l.GB, ref.Layers()[i].GB)
	}
}

// TestTrainStepZeroAllocs pins the batched path's guarantee: after a warm-up
// has grown every scratch arena, a steady-state train step — divergence
// snapshot included — performs zero heap allocations, for every trainer.
func TestTrainStepZeroAllocs(t *testing.T) {
	rng := sim.NewRNG(23)
	for _, c := range learnerCases {
		tr := c.build(t, 6, false, 1)
		batch := mkTransitions(rng, 64, 6, caseActionDim, c.discrete(), caseNumActions)
		step := func() { tr.update(batch) }
		step() // warm-up grows the arenas
		step()
		if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
			t.Errorf("%s: steady-state train step allocates %v times, want 0", c.name, allocs)
		}
	}
}

// TestSampleIntoMatchesSample: under the same seed, SampleInto must consume
// the RNG identically to Sample and pick the same transitions.
func TestSampleIntoMatchesSample(t *testing.T) {
	mk := func(seed int64) *Replay {
		rp := NewReplay(8, sim.NewRNG(seed))
		for i := 0; i < 8; i++ {
			rp.Push(Transition{Reward: float64(i)})
		}
		return rp
	}
	a, b := mk(5), mk(5)
	for round := 0; round < 3; round++ {
		want := a.Sample(6)
		got := make([]Transition, 6)
		b.SampleInto(got)
		for i := range want {
			if got[i].Reward != want[i].Reward {
				t.Fatalf("round %d sample %d: SampleInto picked %v, Sample picked %v",
					round, i, got[i].Reward, want[i].Reward)
			}
		}
	}
}

// TestSampleIntoWraparound samples from a ring that has evicted its oldest
// entries: only live transitions may appear.
func TestSampleIntoWraparound(t *testing.T) {
	rp := NewReplay(4, sim.NewRNG(3))
	for i := 0; i < 7; i++ { // rewards 3..6 survive
		rp.Push(Transition{Reward: float64(i)})
	}
	dst := make([]Transition, 64)
	rp.SampleInto(dst)
	for i, tr := range dst {
		if tr.Reward < 3 || tr.Reward > 6 {
			t.Fatalf("dst[%d]: sampled evicted/out-of-range transition %v", i, tr.Reward)
		}
	}
}

// TestSampleIntoShortPool: a destination larger than the pool draws with
// replacement from whatever is stored rather than reading stale slots.
func TestSampleIntoShortPool(t *testing.T) {
	rp := NewReplay(16, sim.NewRNG(9))
	rp.Push(Transition{Reward: 1})
	rp.Push(Transition{Reward: 2})
	dst := make([]Transition, 32)
	rp.SampleInto(dst)
	seen := map[float64]bool{}
	for i, tr := range dst {
		if tr.Reward != 1 && tr.Reward != 2 {
			t.Fatalf("dst[%d]: sampled uninitialized slot (reward %v)", i, tr.Reward)
		}
		seen[tr.Reward] = true
	}
	if len(seen) != 2 {
		t.Fatalf("32 draws from a 2-entry pool hit %d distinct entries, want 2", len(seen))
	}
}

// TestSampleIntoEmptyPanics documents the empty-pool contract.
func TestSampleIntoEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SampleInto on an empty pool did not panic")
		}
	}()
	rp := NewReplay(4, sim.NewRNG(1))
	rp.SampleInto(make([]Transition, 1))
}
