package exp

import (
	"bytes"
	"context"
	"fmt"
	"os"

	"github.com/deeppower/deeppower/internal/agent"
	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/ckpt"
	"github.com/deeppower/deeppower/internal/fault"
	"github.com/deeppower/deeppower/internal/pool"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// WriteLossPlan is the actuation campaign the policy-lifecycle experiment
// (and the robustness acceptance test) runs under: 60% of governor writes are
// silently lost and the survivors land tens of milliseconds late, which
// defeats any policy that depends on fine-grained per-tick DVFS boosting.
func WriteLossPlan(seed int64) fault.Plan {
	return fault.Plan{
		Seed: seed,
		Actuation: fault.ActuationPlan{
			ExtraLatency:  10 * sim.Millisecond,
			JitterLatency: 30 * sim.Millisecond,
			DropProb:      0.6,
		},
	}
}

// Policy-lifecycle modes: the three escalation configurations compared.
const (
	PolicyLifeBare     = "bare"
	PolicyLifeGuarded  = "guarded"
	PolicyLifeRollback = "guarded+rollback"
)

// PolicyLifeModes is the comparison order.
var PolicyLifeModes = []string{PolicyLifeBare, PolicyLifeGuarded, PolicyLifeRollback}

// PolicyLifeCell is one mode's outcome under the write-loss campaign.
type PolicyLifeCell struct {
	Result *server.Result
	// Guard diagnostics (zero for the bare mode).
	Stats       fault.GuardStats
	Transitions []fault.GuardTransition
	// Registry state (rollback mode only): versions checkpointed during
	// training and the promotion-history depth left after the faulted run.
	TrainedVersions int
	HistoryDepth    int
}

// PolicyLifeResult compares the guard's escalation ladder configurations on
// Xapian: an unguarded policy, the max-frequency-pinning guard, and the
// guard with a checkpoint-registry rollback rung ahead of the pin.
type PolicyLifeResult struct {
	Cells map[string]*PolicyLifeCell
}

// PolicyLife trains DeepPower with per-episode checkpointing into a policy
// registry, then evaluates it under the write-loss fault campaign in each
// escalation configuration. Every mode is one self-contained pool unit that
// retrains its own policy, so results are byte-identical at any worker count.
func PolicyLife(ctx context.Context, scale Scale, workers int) (*PolicyLifeResult, error) {
	cells, err := pool.Map(ctx, PolicyLifeModes, workers,
		func(_ context.Context, mode string, _ int) (*PolicyLifeCell, error) {
			cell, err := policyLifeUnit(mode, scale)
			if err != nil {
				return nil, fmt.Errorf("exp: policylife %s: %w", mode, err)
			}
			return cell, nil
		})
	if err != nil {
		return nil, err
	}
	out := &PolicyLifeResult{Cells: map[string]*PolicyLifeCell{}}
	for i, mode := range PolicyLifeModes {
		out.Cells[mode] = cells[i]
	}
	return out, nil
}

// policyLifeGuardConfig trips exactly at the paper's Eq. 2 budget, checks
// often enough that the first diurnal peak is caught early, and makes safe
// mode sticky for the rest of the run (mirroring the robustness acceptance
// configuration). The rollback hook, when present, is tried before the pin.
func policyLifeGuardConfig(rollback func() bool) fault.GuardConfig {
	return fault.GuardConfig{
		TimeoutRateLimit: 0.01,
		CheckEvery:       10 * sim.Millisecond,
		MinSamples:       16,
		Backoff:          10 * sim.Minute,
		Rollback:         rollback,
		// One rollback attempt: under a campaign this hostile every learned
		// policy fails, so additional attempts only delay the frequency pin
		// and cost tail latency.
		MaxRollbacks: 1,
	}
}

func policyLifeUnit(mode string, scale Scale) (*PolicyLifeCell, error) {
	setup, err := NewSetup(app.Xapian, scale)
	if err != nil {
		return nil, err
	}
	// The same looser operating point as the robustness acceptance test: at
	// SLA 20 ms the peaks are servable at turbo, so the safe-mode fallback
	// can genuinely restore the budget.
	setup.Prof.SLA = 20 * sim.Millisecond

	dp, err := agent.New(setup.agentConfig())
	if err != nil {
		return nil, err
	}
	trainCfg := agent.TrainConfig{
		Episodes:   scale.TrainEpisodes,
		EpisodeLen: setup.Trace.Period,
		Server:     setup.trainServerConfig(),
		Trace:      setup.Trace,
	}

	cell := &PolicyLifeCell{}
	var reg *ckpt.Registry
	if mode == PolicyLifeRollback {
		// The registry lives in a throwaway directory: its contents are
		// derived entirely from the deterministic training run, so only the
		// guard counters (not the path) reach the artifact.
		dir, err := os.MkdirTemp("", "policylife-registry-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if reg, err = ckpt.OpenRegistry(dir); err != nil {
			return nil, err
		}
		trainCfg.OnEpisode = func(int, agent.EpisodeStats) error {
			var buf bytes.Buffer
			if err := dp.SavePolicy(&buf); err != nil {
				return err
			}
			v, err := reg.Put(buf.Bytes())
			if err != nil {
				return err
			}
			return reg.Promote(v)
		}
	}
	if _, err := agent.Train(dp, trainCfg); err != nil {
		return nil, err
	}
	if reg != nil {
		versions, err := reg.Versions()
		if err != nil {
			return nil, err
		}
		cell.TrainedVersions = len(versions)
	}

	var pol server.Policy = dp
	var guard *fault.GuardedPolicy
	switch mode {
	case PolicyLifeGuarded:
		guard = fault.NewGuardedPolicy(dp, policyLifeGuardConfig(nil))
	case PolicyLifeRollback:
		guard = fault.NewGuardedPolicy(dp, policyLifeGuardConfig(fault.RegistryRollback(reg, dp)))
	}
	if guard != nil {
		pol = guard
	}

	res, err := setup.EvaluateUnderFaults(pol, WriteLossPlan(scale.Seed+10))
	if err != nil {
		return nil, err
	}
	cell.Result = res
	if guard != nil {
		cell.Stats = guard.Stats()
		cell.Transitions = guard.Transitions
	}
	if reg != nil {
		cell.HistoryDepth = len(reg.History())
	}
	return cell, nil
}

// Artifacts renders the mode comparison table.
func (r *PolicyLifeResult) Artifacts() []Artifact {
	return []Artifact{tableArtifact("policylife_xapian", r.Table())}
}

// Table renders the mode comparison.
func (r *PolicyLifeResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Policy lifecycle under 60%% write-loss (%s)", app.Xapian),
		Columns: []string{"mode", "power W", "timeout %", "Eq.2 met",
			"rollbacks", "fallbacks", "safe ticks", "ckpt versions", "history depth"},
	}
	for _, mode := range PolicyLifeModes {
		c := r.Cells[mode]
		t.AddRow(mode,
			f2(c.Result.AvgPowerW), f3(c.Result.TimeoutRate*100), fmt.Sprint(c.Result.TimeoutBudgetMet),
			fmt.Sprint(c.Stats.Rollbacks), fmt.Sprint(c.Stats.Fallbacks), fmt.Sprint(c.Stats.SafeTicks),
			fmt.Sprint(c.TrainedVersions), fmt.Sprint(c.HistoryDepth),
		)
	}
	return t
}
