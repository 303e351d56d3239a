package rl

import (
	"testing"

	"github.com/deeppower/deeppower/internal/sim"
)

func trVal(v float64) Transition {
	return Transition{
		State:     []float64{v},
		Action:    []float64{v},
		Reward:    v,
		NextState: []float64{v},
	}
}

func TestReplayPushedCursorAndAtWraparound(t *testing.T) {
	rp := NewReplay(4, sim.NewRNG(1))
	for i := 0; i < 7; i++ {
		rp.Push(trVal(float64(i)))
	}
	if got := rp.Pushed(); got != 7 {
		t.Errorf("Pushed = %d, want 7 (cursor counts past capacity)", got)
	}
	if rp.Len() != 4 {
		t.Fatalf("Len = %d, want 4", rp.Len())
	}
	// After wraparound the ring must hold exactly the tail of the push
	// sequence, oldest retained first.
	for i := 0; i < 4; i++ {
		want := float64(3 + i)
		if got := rp.At(i).Reward; got != want {
			t.Errorf("At(%d).Reward = %v, want %v", i, got, want)
		}
	}
}

func TestReplayAtBeforeWraparound(t *testing.T) {
	rp := NewReplay(8, sim.NewRNG(1))
	for i := 0; i < 3; i++ {
		rp.Push(trVal(float64(i)))
	}
	if rp.Pushed() != 3 {
		t.Errorf("Pushed = %d, want 3", rp.Pushed())
	}
	for i := 0; i < 3; i++ {
		if got := rp.At(i).Reward; got != float64(i) {
			t.Errorf("At(%d).Reward = %v, want %v", i, got, float64(i))
		}
	}
}

func TestReplayAtPanicsOutOfRange(t *testing.T) {
	rp := NewReplay(4, sim.NewRNG(1))
	rp.Push(trVal(1))
	defer func() {
		if recover() == nil {
			t.Error("At(1) with one element did not panic")
		}
	}()
	rp.At(1)
}

// randStates fills a row-major [n×dim] buffer with state vectors in [0,1].
func randStates(rng *sim.RNG, n, dim int) []float64 {
	out := make([]float64, n*dim)
	for i := range out {
		out[i] = rng.Float64()
	}
	return out
}

// TestActBatchMatchesAct: every row of the batched greedy forward is
// bit-identical to Act on that state, for every actor–critic variant (SAC's
// rows are the squashed means, not the raw head output).
func TestActBatchMatchesAct(t *testing.T) {
	for _, c := range learnerCases {
		if c.discrete() {
			continue // TestDQNActBatchArgmaxMatchesAct
		}
		t.Run(c.name, func(t *testing.T) {
			l := c.build(t, 8, false, 31).(acTrainer)
			const n = 5
			states := randStates(sim.NewRNG(32), n, 8)
			rows := append([]float64(nil), l.ActBatch(states, n)...)
			if len(rows) != n*caseActionDim {
				t.Fatalf("ActBatch returned %d values for %d states", len(rows), n)
			}
			for i := 0; i < n; i++ {
				single := l.Act(states[i*8 : (i+1)*8])
				for j, v := range single {
					if rows[i*caseActionDim+j] != v {
						t.Errorf("state %d dim %d: batch %v != single %v", i, j, rows[i*caseActionDim+j], v)
					}
				}
			}
		})
	}
}

func TestDQNActBatchArgmaxMatchesAct(t *testing.T) {
	d, err := NewDQN(DQNConfig{StateDim: 8, NumActions: 25, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	states := randStates(sim.NewRNG(36), n, 8)
	rows := append([]float64(nil), d.ActBatch(states, n)...)
	for i := 0; i < n; i++ {
		if got, want := Argmax(rows[i*25:(i+1)*25]), d.Act(states[i*8:(i+1)*8]); got != want {
			t.Errorf("state %d: batch argmax %d != Act %d", i, got, want)
		}
	}
}
