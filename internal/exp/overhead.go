package exp

import (
	"context"
	"time"

	"github.com/deeppower/deeppower/internal/agent"
	"github.com/deeppower/deeppower/internal/rl"
	"github.com/deeppower/deeppower/internal/sim"
)

// OverheadResult reproduces the §5.5 overhead analysis:
//
//   - the DDPG parameter update with batch 64 (paper: 13 ms on their CPU)
//   - action generation (paper: < 1 ms)
//   - actor parameter count (paper: 2096)
//   - per-core frequency-set cost in the thread controller (paper: < 10 µs)
//
// The paper also measures +2.81 W of framework power on real hardware; in a
// simulation the framework executes outside the modeled socket, so that row
// is reported as the paper's value with measurement not applicable.
type OverheadResult struct {
	TrainStepMS     float64 // batch-64 DDPG update
	ActionGenUS     float64 // single inference
	ActorParams     int
	FreqSetUS       float64 // one SetFreq round-trip in the simulator
	PaperTrainMS    float64
	PaperActorParam int

	// SimEvents and SimEventsPerSec report the simulation core's own
	// throughput over a ten-second reference episode: how many engine
	// events fired, and fired events per wall-clock second. They bound the
	// simulator's contribution to any measured overhead above.
	SimEvents       uint64
	SimEventsPerSec float64
}

// Overhead measures the framework's computational costs. It takes the
// harness signature; scale and workers do not apply.
func Overhead(context.Context, Scale, int) (*OverheadResult, error) {
	ddpg, err := rl.NewDDPG(rl.DDPGConfig{
		StateDim:  agent.StateDim,
		ActionDim: agent.ActionDim,
		Seed:      1,
	})
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(1)
	replay := rl.NewReplay(1024, rng.Stream("replay"))
	for i := 0; i < 1024; i++ {
		replay.Push(rl.Transition{
			State:     randState(rng),
			Action:    []float64{rng.Float64(), rng.Float64()},
			Reward:    -rng.Float64(),
			NextState: randState(rng),
		})
	}
	batch := replay.Sample(64)

	res := &OverheadResult{
		ActorParams:     ddpg.NumParams(),
		PaperTrainMS:    13,
		PaperActorParam: 2096,
	}

	const trainIters = 50
	start := time.Now()
	for i := 0; i < trainIters; i++ {
		ddpg.Update(batch)
	}
	res.TrainStepMS = float64(time.Since(start).Milliseconds()) / trainIters

	state := randState(rng)
	const actIters = 5000
	start = time.Now()
	for i := 0; i < actIters; i++ {
		ddpg.Act(state)
	}
	res.ActionGenUS = float64(time.Since(start).Microseconds()) / actIters

	// Frequency-set cost: a SetFreq call against a live core model.
	res.FreqSetUS = measureFreqSet()

	// Simulator throughput: events fired over a reference episode.
	res.SimEvents, res.SimEventsPerSec, err = measureSimThroughput()
	if err != nil {
		return nil, err
	}
	return res, nil
}

func randState(rng *sim.RNG) []float64 {
	s := make([]float64, agent.StateDim)
	for i := range s {
		s[i] = rng.Float64()
	}
	return s
}

// Artifacts renders the overhead table.
func (r *OverheadResult) Artifacts() []Artifact {
	return []Artifact{tableArtifact("overhead", r.Table())}
}

// Table renders measured vs. paper overheads.
func (r *OverheadResult) Table() *Table {
	t := &Table{
		Title:   "§5.5 — framework overhead",
		Columns: []string{"metric", "measured", "paper"},
	}
	t.AddRow("DDPG update, batch 64 (ms)", f3(r.TrainStepMS), f(r.PaperTrainMS))
	t.AddRow("action generation (us)", f3(r.ActionGenUS), "< 1000")
	t.AddRow("actor parameters", f(float64(r.ActorParams)), f(float64(r.PaperActorParam)))
	t.AddRow("per-core freq set (us)", f3(r.FreqSetUS), "< 10")
	t.AddRow("framework power (W)", "n/a (simulated)", "2.81")
	t.AddRow("sim events, 10s episode", f(float64(r.SimEvents)), "n/a (simulation)")
	t.AddRow("sim throughput (events/s)", f(r.SimEventsPerSec), "n/a (simulation)")
	return t
}
