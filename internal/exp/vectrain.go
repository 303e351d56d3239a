package exp

import (
	"context"
	"fmt"
	"time"

	"github.com/deeppower/deeppower/internal/agent"
	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// VecTrainEnvs are the vector widths the harness compares against the
// single-env trainer.
var VecTrainEnvs = []int{4, 8, 16}

// VecTrainRow is one training configuration's measurement: how fast
// experience entered the replay pool, and what the resulting policy is worth
// on the standard evaluation window.
type VecTrainRow struct {
	// Name labels the configuration ("single" or "vec-E<n>").
	Name string
	// Envs is the environment count (1 for the single-env trainer).
	Envs int
	// WallSeconds is the measured training wall time.
	WallSeconds float64
	// Transitions counts experience pushed into the replay pool.
	Transitions uint64
	// TransPerSec is Transitions / WallSeconds — the experience throughput
	// the vectorized trainer exists to raise.
	TransPerSec float64
	// Speedup is TransPerSec over the single-env row's.
	Speedup float64
	// FinalReturn is the last training episode's mean return.
	FinalReturn float64
	// Eval is the trained policy evaluated on the setup's standard window.
	Eval *server.Result
}

// VecTrainResult compares single-env and vectorized DeepPower training on
// Xapian.
type VecTrainResult struct {
	Rows []VecTrainRow
}

// VecTrain trains one DeepPower policy per configuration — the classic
// single-env loop, then E ∈ VecTrainEnvs lockstep environments — for the
// same episode count each, and evaluates every trained policy on the same
// window. Configurations run sequentially (never pooled against each other)
// so each wall-clock measurement has the machine to itself; workers only
// bounds the env fan-out inside one vectorized trainer. Wall-clock numbers
// make this harness non-deterministic; everything else about the rows is
// seed-stable.
func VecTrain(ctx context.Context, scale Scale, workers int) (*VecTrainResult, error) {
	setup, err := NewSetup(app.Xapian, scale)
	if err != nil {
		return nil, err
	}
	out := &VecTrainResult{}
	evalEng := sim.NewEngine() // warm arena reused across all evaluations

	run := func(name string, envs int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		dp, err := agent.New(setup.agentConfig())
		if err != nil {
			return err
		}
		var finalReturn float64
		start := time.Now()
		if envs <= 1 {
			stats, err := agent.Train(dp, agent.TrainConfig{
				Episodes:   scale.TrainEpisodes,
				EpisodeLen: setup.Trace.Period,
				Server:     setup.trainServerConfig(),
				Trace:      setup.Trace,
			})
			if err != nil {
				return err
			}
			if len(stats) > 0 {
				finalReturn = stats[len(stats)-1].Return
			}
		} else {
			vt, err := agent.NewVectorTrainer(dp, agent.TrainVectorConfig{
				Envs:       envs,
				Workers:    workers,
				Episodes:   scale.TrainEpisodes,
				EpisodeLen: setup.Trace.Period,
				Server:     setup.trainServerConfig(),
				Trace:      setup.Trace,
			})
			if err != nil {
				return err
			}
			stats, err := vt.Train(ctx)
			if err != nil {
				return err
			}
			if len(stats) > 0 {
				finalReturn = stats[len(stats)-1].Return
			}
		}
		wall := time.Since(start).Seconds()
		res, err := setup.EvaluateOn(evalEng, dp)
		if err != nil {
			return err
		}
		row := VecTrainRow{
			Name:        name,
			Envs:        envs,
			WallSeconds: wall,
			Transitions: dp.Experience(),
			FinalReturn: finalReturn,
			Eval:        res,
		}
		if wall > 0 {
			row.TransPerSec = float64(row.Transitions) / wall
		}
		out.Rows = append(out.Rows, row)
		return nil
	}

	if err := run("single", 1); err != nil {
		return nil, fmt.Errorf("exp: vectrain single: %w", err)
	}
	for _, envs := range VecTrainEnvs {
		if err := run(fmt.Sprintf("vec-E%d", envs), envs); err != nil {
			return nil, fmt.Errorf("exp: vectrain E=%d: %w", envs, err)
		}
	}
	base := out.Rows[0].TransPerSec
	for i := range out.Rows {
		if base > 0 {
			out.Rows[i].Speedup = out.Rows[i].TransPerSec / base
		}
	}
	return out, nil
}

// Artifacts renders the throughput/quality table.
func (r *VecTrainResult) Artifacts() []Artifact {
	return []Artifact{tableArtifact("vectrain_xapian", r.Table())}
}

// Table renders the throughput/quality comparison.
func (r *VecTrainResult) Table() *Table {
	t := &Table{
		Title: "Vectorized training — experience throughput vs policy quality (" + app.Xapian + ")",
		Columns: []string{"config", "envs", "wall s", "transitions", "trans/s",
			"speedup", "return", "power W", "p99 ms", "timeout %"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			fmt.Sprintf("%d", row.Envs),
			f2(row.WallSeconds),
			fmt.Sprintf("%d", row.Transitions),
			f2(row.TransPerSec),
			f2(row.Speedup),
			f2(row.FinalReturn),
			f2(row.Eval.AvgPowerW),
			f3(row.Eval.Latency.P99*1000),
			f3(row.Eval.TimeoutRate*100),
		)
	}
	return t
}
