package exp

import (
	"context"
	"strings"
	"testing"

	"github.com/deeppower/deeppower/internal/sim"
)

// policyLifeScale mirrors the robustness acceptance scale: enough training
// for a usable policy and a long enough faulted window for the guard's
// ladder to play out.
func policyLifeScale() Scale {
	return Scale{
		Workers:       4,
		TrainEpisodes: 4,
		EvalDuration:  40 * sim.Second,
		TracePeriod:   10 * sim.Second,
		Samples:       2000,
		Seed:          1,
	}
}

// TestPolicyLifeRollbackLadder is the hot-swap acceptance criterion: under
// the 60% write-loss campaign the registry rollback rung must engage before
// max-frequency pinning, and the rollback-equipped guard must hold the
// timeout budget at least as well as the plain guard.
func TestPolicyLifeRollbackLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three policies")
	}
	r, err := PolicyLife(context.Background(), policyLifeScale(), 3)
	if err != nil {
		t.Fatal(err)
	}

	bare := r.Cells[PolicyLifeBare]
	guarded := r.Cells[PolicyLifeGuarded]
	rollback := r.Cells[PolicyLifeRollback]

	if bare.Result.TimeoutBudgetMet {
		t.Fatalf("bare deeppower unexpectedly met the Eq.2 budget (timeout %.3f%%); "+
			"the write-loss campaign is too weak", bare.Result.TimeoutRate*100)
	}
	if !guarded.Result.TimeoutBudgetMet {
		t.Fatalf("plain guard failed to restore the budget: timeout %.3f%%",
			guarded.Result.TimeoutRate*100)
	}

	// The registry must have been populated during training and drained by
	// the rollback rung under faults.
	if rollback.TrainedVersions != policyLifeScale().TrainEpisodes {
		t.Errorf("registry holds %d versions, want one per training episode (%d)",
			rollback.TrainedVersions, policyLifeScale().TrainEpisodes)
	}
	if rollback.Stats.Rollbacks == 0 {
		t.Fatal("rollback rung never engaged under the write-loss campaign")
	}
	if !r.RollbackBeforeSafe() {
		t.Fatalf("guard pinned max frequency before trying a rollback: transitions %+v",
			rollback.Transitions)
	}
	if rollback.HistoryDepth >= rollback.TrainedVersions {
		t.Errorf("promotion history depth %d did not shrink from %d despite %d rollbacks",
			rollback.HistoryDepth, rollback.TrainedVersions, rollback.Stats.Rollbacks)
	}

	// Rollback must not cost QoS: the ladder still ends in safe mode when
	// no version survives the campaign, so the budget holds. Probing the
	// last-good policy under a campaign that dooms every learned policy
	// costs exactly one breach-detection window relative to pinning
	// immediately, so the rate must stay within a twentieth of a percent of
	// the plain guard (≈0.27% here), far inside the 1% Eq. 2 budget.
	if !rollback.Result.TimeoutBudgetMet {
		t.Fatalf("guarded+rollback violates Eq.2: timeout %.3f%% (guarded %.3f%%)",
			rollback.Result.TimeoutRate*100, guarded.Result.TimeoutRate*100)
	}
	if rollback.Result.TimeoutRate > guarded.Result.TimeoutRate+0.0005 {
		t.Fatalf("guarded+rollback timeout %.3f%% drifted from the guarded baseline %.3f%%",
			rollback.Result.TimeoutRate*100, guarded.Result.TimeoutRate*100)
	}
	t.Logf("timeout%%: bare %.3f -> guarded %.3f -> guarded+rollback %.3f (rollbacks=%d, fallbacks=%d)",
		bare.Result.TimeoutRate*100, guarded.Result.TimeoutRate*100,
		rollback.Result.TimeoutRate*100, rollback.Stats.Rollbacks, rollback.Stats.Fallbacks)

	tbl := r.Table()
	if len(tbl.Rows) != len(PolicyLifeModes) {
		t.Fatalf("table has %d rows", len(tbl.Rows))
	}
	if !strings.Contains(tbl.Render(), PolicyLifeRollback) {
		t.Fatal("table missing the rollback mode row")
	}
}
