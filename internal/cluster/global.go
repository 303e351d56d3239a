package cluster

import "math"

// GlobalConfig parameterizes the fleet-level controller — the global tier of
// Liu et al.'s hierarchical framework. Every Every epochs it reassigns
// per-shard request shares from window telemetry (shedding load off shards
// breaching the timeout budget, steering the remainder toward efficient
// machines) and, when PowerBudgetW is set, splits the fleet power budget
// into per-shard frequency ceilings. The per-shard DVFS decisions below the
// caps stay with each shard's local agent — the local tier.
type GlobalConfig struct {
	// Every is the reassignment cadence in control epochs (default 10).
	Every int
	// PowerBudgetW is the fleet-wide average power budget (0 = uncapped).
	// Shards drawing more than their load-proportional slice get their
	// frequency ceiling stepped down one ladder notch; shards comfortably
	// under it get the ceiling stepped back up.
	PowerBudgetW float64
}

const (
	// timeoutBudget is the per-shard window timeout-rate budget that
	// triggers load shedding: the paper's Eq. 2 rate.
	timeoutBudget = 0.01
	// adapt is the share adaptation rate per reassignment, in (0, 1].
	adapt = 0.25
)

func (c GlobalConfig) withDefaults() GlobalConfig {
	if c.Every <= 0 {
		c.Every = 10
	}
	return c
}

// Share bounds: a shard is never starved below minShare of its fair share
// (it must keep completing requests so its telemetry stays live) and never
// loaded past maxShare of it.
const (
	minShare = 0.05
	maxShare = 4.0
)

// globalTier holds the controller's state: current shares, efficiency-
// preferred share targets, and per-shard power floors. The frequency
// ceilings it sets live on the shards (shard.ceil) and their servers.
type globalTier struct {
	cfg    GlobalConfig
	share  []float64
	target []float64
	floor  []float64 // minimum feasible draw: uncore + all cores idle at Min
}

// newGlobalTier derives the efficiency-preferred share targets: shares
// proportional to inverse marginal energy (normalized to mean 1), honoring
// relative core counts. A homogeneous fleet gets uniform targets.
func newGlobalTier(cfg GlobalConfig, shards []*shard) *globalTier {
	g := &globalTier{
		cfg:    cfg.withDefaults(),
		share:  make([]float64, len(shards)),
		target: make([]float64, len(shards)),
		floor:  make([]float64, len(shards)),
	}
	sum := 0.0
	for i, sh := range shards {
		w := 1.0
		if sh.effCost > 0 && !math.IsInf(sh.effCost, 0) {
			w = 1 / sh.effCost
		}
		g.target[i] = w
		g.floor[i] = sh.floorW
		sum += w
	}
	for i := range g.target {
		if sum > 0 {
			g.target[i] *= float64(len(shards)) / sum
		} else {
			g.target[i] = 1
		}
		g.share[i] = 1
	}
	return g
}

// reassign is one global-tier control step over the latest epoch snapshots.
// It mutates shares toward the efficiency targets, sheds load off breaching
// shards, renormalizes to mean 1, and (under a power budget) steps the
// per-shard frequency ceilings. Deterministic: pure arithmetic over the
// snapshots in shard order.
func (g *globalTier) reassign(states []ShardState) {
	for i := range states {
		if states[i].WindowTimeoutRate > timeoutBudget {
			// The shard is breaching: shed load multiplicatively. The local
			// guard (when configured) handles the latency emergency; the
			// global tier just stops feeding it.
			g.share[i] *= 1 - adapt
		} else {
			g.share[i] += adapt * (g.target[i] - g.share[i])
		}
		g.share[i] = math.Min(math.Max(g.share[i], minShare), maxShare)
	}
	// Renormalize to mean 1 so shares stay comparable across steps.
	sum := 0.0
	for _, s := range g.share {
		sum += s
	}
	if sum > 0 {
		k := float64(len(g.share)) / sum
		for i := range g.share {
			g.share[i] *= k
		}
	}
}

// rebudget enforces the fleet power budget. Each shard's slice is its
// minimum feasible draw (uncore plus idle cores at the ladder floor — power
// no frequency cap can remove) plus a share-proportional cut of the
// remaining discretionary headroom; a purely share-proportional split would
// hand low-share shards a slice below their idle floor and ratchet them
// into a permanent frequency-floor tarpit. The ceiling moves one ladder
// step per reassignment toward compliance — except on shards breaching the
// timeout budget, which get relief instead (QoS overrides power capping).
// When the budget cannot even cover the fleet's idle floors, slices degrade
// to share-proportional.
func (g *globalTier) rebudget(states []ShardState, shards []*shard) {
	if g.cfg.PowerBudgetW <= 0 {
		return
	}
	sum, sumFloor := 0.0, 0.0
	for i, s := range g.share {
		sum += s
		sumFloor += g.floor[i]
	}
	if sum <= 0 {
		return
	}
	headroom := g.cfg.PowerBudgetW - sumFloor
	for i := range states {
		var slice float64
		if headroom > 0 {
			slice = g.floor[i] + headroom*g.share[i]/sum
		} else {
			slice = g.cfg.PowerBudgetW * g.share[i] / sum
		}
		sh := shards[i]
		lad := sh.ladder
		switch {
		case states[i].WindowTimeoutRate > timeoutBudget:
			// QoS override: never tighten the ceiling on a shard already
			// breaching its timeout window. A capped shard cannot burn down
			// backlog, the backlog keeps its power at the slice, and the
			// ceiling ratchets to the ladder floor — a death spiral in which
			// a transient fault becomes a permanent outage. Power capping
			// yields to the latency emergency, one step of relief per
			// reassignment; the budget re-engages once the window is healthy.
			if sh.ceil != 0 {
				if next := sh.ceil + lad.Step; next >= lad.Max {
					sh.ceil = 0
				} else {
					sh.ceil = lad.Quantize(next)
				}
			}
		case states[i].PowerW > slice:
			cur := sh.ceil
			if cur == 0 {
				cur = lad.Max
			}
			if next := cur - lad.Step; next >= lad.Min {
				sh.ceil = lad.Quantize(next)
			} else {
				sh.ceil = lad.Min
			}
		case states[i].PowerW < 0.8*slice && sh.ceil != 0:
			next := sh.ceil + lad.Step
			if next >= lad.Max {
				sh.ceil = 0 // back to uncapped
			} else {
				sh.ceil = lad.Quantize(next)
			}
		}
		sh.srv.SetFreqCeiling(sh.ceil)
	}
}
