package exp

import (
	"time"

	"github.com/deeppower/deeppower/internal/agent"
	"github.com/deeppower/deeppower/internal/rl"
)

// Table2Result reports the wall-clock inference time of the four DRL
// algorithms the paper times in Table 2 (DQN 125 µs, DDQN 140 µs, DDPG
// 231 µs, SAC 472 µs on their Python/PyTorch stack). Absolute numbers
// differ across stacks — compiled Go on tiny networks is much faster than
// Python — but the ordering (value-based < deterministic actor < stochastic
// actor) and the paper's conclusion (all far too slow for per-request
// control at sub-millisecond service times, fine at 1 s agent intervals)
// must hold.
type Table2Result struct {
	// InferenceUS maps algorithm → mean single-action latency (µs).
	InferenceUS map[string]float64
	// PaperUS is the paper's reported numbers for side-by-side rendering.
	PaperUS map[string]float64
}

// Table2 measures each algorithm's action-generation path.
func Table2(iters int) (*Table2Result, error) {
	if iters <= 0 {
		iters = 2000
	}
	state := make([]float64, agent.StateDim)
	for i := range state {
		state[i] = 0.5
	}
	res := &Table2Result{
		InferenceUS: map[string]float64{},
		PaperUS: map[string]float64{
			"DQN": 125, "DDQN": 140, "DDPG": 231, "SAC": 472,
		},
	}

	dqn, err := rl.NewDQN(rl.DQNConfig{StateDim: agent.StateDim, NumActions: 25, Seed: 1})
	if err != nil {
		return nil, err
	}
	ddqn, err := rl.NewDQN(rl.DQNConfig{StateDim: agent.StateDim, NumActions: 25, Seed: 1, Double: true})
	if err != nil {
		return nil, err
	}
	ddpg, err := rl.NewDDPG(rl.DDPGConfig{StateDim: agent.StateDim, ActionDim: agent.ActionDim, Seed: 1})
	if err != nil {
		return nil, err
	}
	sac, err := rl.NewSAC(rl.DDPGConfig{StateDim: agent.StateDim, ActionDim: agent.ActionDim, Seed: 1})
	if err != nil {
		return nil, err
	}

	res.InferenceUS["DQN"] = timeUS(iters, func() { dqn.Act(state) })
	// DDQN's inference path is the same Q-network; its extra cost is in
	// training. Measure it independently anyway.
	res.InferenceUS["DDQN"] = timeUS(iters, func() { ddqn.Act(state) })
	res.InferenceUS["DDPG"] = timeUS(iters, func() { ddpg.Act(state) })
	// SAC inference samples the squashed Gaussian (the paper measures the
	// stochastic path, hence its higher cost).
	res.InferenceUS["SAC"] = timeUS(iters, func() { sac.SampleAction(state) })
	return res, nil
}

func timeUS(iters int, fn func()) float64 {
	// Warm up.
	for i := 0; i < 50; i++ {
		fn()
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return float64(time.Since(start).Microseconds()) / float64(iters)
}

// Algorithms lists Table 2's column order.
var table2Order = []string{"DQN", "DDQN", "DDPG", "SAC"}

// Artifacts renders the inference-time table.
func (r *Table2Result) Artifacts() []Artifact {
	return []Artifact{tableArtifact("table2_inference_time", r.Table())}
}

// Table renders measured vs. paper numbers.
func (r *Table2Result) Table() *Table {
	t := &Table{
		Title:   "Table 2 — DRL inference time",
		Columns: []string{"algorithm", "measured (us)", "paper (us, PyTorch)"},
	}
	for _, alg := range table2Order {
		t.AddRow(alg, f3(r.InferenceUS[alg]), f(r.PaperUS[alg]))
	}
	return t
}
