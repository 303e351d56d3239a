package agent

import (
	"math"

	"github.com/deeppower/deeppower/internal/sim"
)

// RewardConfig weights the three penalty terms of §4.4.2:
//
//	R_total = -(α·R_energy + β·R_timeout + γ·R_queue)
//
// The energy weight α is the constant alpha.
type RewardConfig struct {
	// Beta weights timeouts (default 10) — raise it if tail latency sits
	// above the SLA, per the paper's tuning note.
	Beta float64
	// Gamma weights queue growth (default 1).
	Gamma float64
	// Eta is the scaleFunc threshold: queues shorter than Eta are barely
	// punished, longer queues strongly (default 100, Fig. 5).
	Eta float64
	// ClassRefPowerW, when set, makes StepClasses normalize each core
	// class's energy delta by its own reference power (one entry per
	// class); R_energy becomes the mean of the per-class terms, so waste
	// on a low-power efficiency class is not drowned out by the fast
	// class's scale. Ignored by Step.
	ClassRefPowerW []float64
}

const (
	// alpha weights energy.
	alpha = 1
	// RefPowerW normalizes R_energy: the energy of one step is divided by
	// RefPowerW·step so a fully-loaded baseline scores ≈ 1.
	RefPowerW = 300
)

// Weights set to a negative value disable the corresponding term (zero
// selects the default) — the sentinel the reward ablations use.
func (c RewardConfig) withDefaults() RewardConfig {
	if c.Beta == 0 {
		c.Beta = 10
	}
	if c.Gamma == 0 {
		c.Gamma = 1
	}
	if c.Beta < 0 {
		c.Beta = 0
	}
	if c.Gamma < 0 {
		c.Gamma = 0
	}
	if c.Eta == 0 {
		c.Eta = 100
	}
	return c
}

// ScaleFunc is the paper's queue scaling function (Fig. 5):
//
//	scaleFunc(x) = (x/η) / (x/η + η/(x+ε))
//
// ≈0 below η, →1 as x → ∞. Out-of-domain inputs (negative or non-finite x,
// possible when queue telemetry is faulted) clamp to the nearest valid
// value rather than poisoning the reward with NaN.
func ScaleFunc(x, eta float64) float64 {
	const eps = 1e-9
	if math.IsNaN(x) || x < 0 {
		return 0
	}
	if math.IsInf(x, 1) {
		return 1
	}
	a := x / eta
	return a / (a + eta/(x+eps))
}

// Reward computes per-step rewards from interval deltas.
type Reward struct {
	cfg             RewardConfig
	lastEnergy      float64
	lastClassEnergy []float64
	lastTimeouts    uint64
	lastQueueLen    int
	primed          bool
}

// NewReward returns a calculator with the given (defaulted) weights.
func NewReward(cfg RewardConfig) *Reward {
	return &Reward{cfg: cfg.withDefaults()}
}

// Reset clears inter-step state at episode boundaries.
func (rw *Reward) Reset() { rw.primed = false }

// Breakdown decomposes one step's reward.
type Breakdown struct {
	Energy  float64 // α·R_energy
	Timeout float64 // β·R_timeout
	Queue   float64 // γ·R_queue
	Total   float64 // -(sum)
}

// Step computes the reward for the interval ending now, given cumulative
// energy (joules), cumulative timeout count, the current queue length, and
// the step duration. The first call after Reset only primes the deltas and
// returns a zero Breakdown.
func (rw *Reward) Step(energyJ float64, timeouts uint64, queueLen int, step sim.Time) Breakdown {
	defer func() {
		rw.lastEnergy = energyJ
		rw.lastTimeouts = timeouts
		rw.lastQueueLen = queueLen
		rw.primed = true
	}()
	if !rw.primed {
		return Breakdown{}
	}
	var b Breakdown
	// R_energy: interval energy normalized to the reference power budget.
	// Faulted energy sensors can report non-monotone or non-finite
	// cumulative readings; a bad delta contributes zero rather than a
	// NaN/negative reward, and the bad reading is not retained as the
	// baseline for the next step.
	dE := energyJ - rw.lastEnergy
	if math.IsNaN(dE) || math.IsInf(dE, 0) || dE < 0 {
		dE = 0
	}
	if math.IsNaN(energyJ) || math.IsInf(energyJ, 0) {
		energyJ = rw.lastEnergy
	}
	denom := RefPowerW * step.Seconds()
	if denom > 0 {
		b.Energy = alpha * dE / denom
	}
	// R_timeout: timeouts in the interval, compressed with log1p so a
	// thousand-timeout burst does not dwarf every other signal.
	dt := float64(timeouts - rw.lastTimeouts)
	b.Timeout = rw.cfg.Beta * math.Log1p(dt) / 10
	// R_queue: scaleFunc(ql)·max(ql − ql_prev, 0) (§4.4.2).
	growth := float64(queueLen - rw.lastQueueLen)
	if growth < 0 {
		growth = 0
	}
	b.Queue = rw.cfg.Gamma * ScaleFunc(float64(queueLen), rw.cfg.Eta) * growth
	b.Total = -(b.Energy + b.Timeout + b.Queue)
	return b
}

// StepClasses is Step with per-class energy attribution for heterogeneous
// servers: when ClassRefPowerW matches classEnergy's length, R_energy is the
// mean of each class's energy delta normalized by that class's reference
// power. Without class references it degrades to Step's total-energy term.
// The timeout and queue terms are identical to Step's.
func (rw *Reward) StepClasses(energyJ float64, classEnergy []float64, timeouts uint64, queueLen int, step sim.Time) Breakdown {
	refs := rw.cfg.ClassRefPowerW
	if len(refs) != len(classEnergy) || len(classEnergy) == 0 {
		return rw.Step(energyJ, timeouts, queueLen, step)
	}
	if len(rw.lastClassEnergy) != len(classEnergy) {
		rw.lastClassEnergy = make([]float64, len(classEnergy))
	}
	primed := rw.primed
	b := rw.Step(energyJ, timeouts, queueLen, step)
	if primed {
		sum, n := 0.0, 0
		for c, e := range classEnergy {
			dE := e - rw.lastClassEnergy[c]
			if math.IsNaN(dE) || math.IsInf(dE, 0) || dE < 0 {
				dE = 0
			}
			if denom := refs[c] * step.Seconds(); denom > 0 {
				sum += dE / denom
				n++
			}
		}
		if n > 0 {
			b.Total += b.Energy // retract the total-energy term
			b.Energy = alpha * sum / float64(n)
			b.Total -= b.Energy
		}
	}
	for c, e := range classEnergy {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			e = rw.lastClassEnergy[c]
		}
		rw.lastClassEnergy[c] = e
	}
	return b
}
