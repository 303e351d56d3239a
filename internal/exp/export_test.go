// Observers and oracles only this package's tests read: the reachability
// fence (internal/reach, DESIGN.md "What ships") keeps them out of the
// shipped files.
package exp

import (
	"math"

	"github.com/deeppower/deeppower/internal/server"
)

// MaxOffDiagonal returns the largest relative RMSE outside the diagonal —
// the headline number showing cross-load degradation.
func (r *Fig2Heatmap) MaxOffDiagonal() float64 {
	worst := 0.0
	for i := range r.RelRMSE {
		for j := range r.RelRMSE[i] {
			if i != j && r.RelRMSE[i][j] > worst {
				worst = r.RelRMSE[i][j]
			}
		}
	}
	return worst
}

// RollbackBeforeSafe reports whether, in the rollback mode, the guard tried
// at least one registry rollback strictly before its first transition into
// max-frequency safe mode — the escalation-ladder ordering contract.
func (r *PolicyLifeResult) RollbackBeforeSafe() bool {
	cell := r.Cells[PolicyLifeRollback]
	if cell == nil || cell.Stats.Rollbacks == 0 {
		return false
	}
	for _, tr := range cell.Transitions {
		if tr.RolledBack {
			return true
		}
		if tr.ToSafe {
			return false
		}
	}
	return false
}

// minFreq is the lowest frequency anywhere in the trace.
func minFreq(ft *server.FreqTrace) float64 {
	m := math.Inf(1)
	for _, row := range ft.Freqs {
		for _, f := range row {
			m = math.Min(m, f)
		}
	}
	return m
}

// freqChanges counts tick-to-tick frequency changes summed over cores — a
// granularity measure separating per-request policies from per-millisecond
// ones (Figs. 9 and 10).
func freqChanges(ft *server.FreqTrace) int {
	n := 0
	for i := 1; i < len(ft.Freqs); i++ {
		for c, f := range ft.Freqs[i] {
			if f != ft.Freqs[i-1][c] {
				n++
			}
		}
	}
	return n
}
