package fault

import (
	"math"

	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// GuardConfig tunes the guarded-policy watchdog. The zero value selects the
// defaults below; the health window, the p99 limit, the invalid-action
// limit and the backoff cap are the constants after it.
type GuardConfig struct {
	// CheckEvery is how often health is evaluated (default 50 ms).
	CheckEvery sim.Time
	// TimeoutRateLimit trips the guard when the windowed timeout rate
	// exceeds it (default 0.02 — twice the paper's Eq. 2 budget, so a
	// policy that merely skirts the 1% budget is not preempted).
	TimeoutRateLimit float64
	// MinSamples is the minimum completions in the window before latency
	// health is judged (default 32).
	MinSamples int
	// Backoff is the initial safe-mode dwell before the inner policy is
	// retried (default 1 s); it doubles per consecutive failed retry up
	// to maxBackoff.
	Backoff sim.Time
	// Rollback, when non-nil, inserts a rung into the escalation ladder:
	// on a health breach it is invoked before the guard pins max
	// frequency, and should restore the inner policy to its last
	// known-good version (see RegistryRollback), returning whether a
	// fallback version was engaged. On success the guard stays engaged on
	// the rolled-back policy; only when the hook fails — or MaxRollbacks
	// consecutive rollbacks breach again without an intervening healthy
	// window — does the guard degrade to max-frequency safe mode.
	Rollback func() bool
	// MaxRollbacks caps consecutive rollbacks between healthy windows
	// (default 3).
	MaxRollbacks int
}

const (
	// window is the sliding window health is computed over.
	window = sim.Second
	// p99Factor trips the guard when the windowed p99 latency exceeds
	// p99Factor x SLA.
	p99Factor = 1.5
	// maxInvalid trips the guard after this many invalid inner-policy
	// actions within one window.
	maxInvalid = 3
	// maxBackoff caps the doubling safe-mode dwell.
	maxBackoff = 16 * sim.Second
)

func (c GuardConfig) withDefaults() GuardConfig {
	if c.CheckEvery <= 0 {
		c.CheckEvery = 50 * sim.Millisecond
	}
	if c.TimeoutRateLimit <= 0 {
		c.TimeoutRateLimit = 0.02
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 32
	}
	if c.Backoff <= 0 {
		c.Backoff = sim.Second
	}
	if c.MaxRollbacks <= 0 {
		c.MaxRollbacks = 3
	}
	return c
}

// GuardStats counts watchdog interventions.
type GuardStats struct {
	InvalidActions uint64 // inner-policy actions rejected or clamped
	Rollbacks      uint64 // policy rollbacks to a last-good version
	Fallbacks      uint64 // transitions into safe mode
	Reengages      uint64 // successful returns to the inner policy
	SafeTicks      uint64 // ticks spent in safe mode
}

// GuardedPolicy wraps an inner server.Policy with a watchdog: every action
// the inner policy takes is validated (NaN/Inf/out-of-range rejected), and
// a sliding window of completions is monitored for timeout-rate and
// tail-latency health. On a health breach — or repeated invalid actions —
// the guard degrades to a safe mode that pins every core at maximum
// frequency (the QoS-safe, power-hungry operating point a production
// deployment falls back to), then retries the inner policy with exponential
// backoff once the window looks healthy again.
//
// The guard is itself a server.Policy, so it wraps DeepPower, baselines, or
// any other policy unchanged, and it exports its counters on the Result via
// the server.StatsReporter hook.
type GuardedPolicy struct {
	inner server.Policy
	cfg   GuardConfig

	ctl   server.Control // the real, unguarded control
	gctl  *guardedControl
	sla   sim.Time
	turbo cpu.Freq

	safeMode    bool
	backoff     sim.Time
	nextCheck   sim.Time
	retryAt     sim.Time
	invalidBase int
	rollbacks   int // consecutive rollbacks since the last healthy window
	win         healthWindow

	// stats and Transitions are cumulative over every run the guard
	// serves; Init resets the per-run state above.
	stats GuardStats
	// Transitions logs every mode change for diagnostics.
	Transitions []GuardTransition
}

// GuardTransition is one watchdog mode change.
type GuardTransition struct {
	At     sim.Time
	ToSafe bool
	// RolledBack marks a policy rollback: the guard swapped the inner
	// policy to its last-good version and stayed engaged (ToSafe=false).
	RolledBack bool
	// WindowTimeoutRate and WindowP99 are the health-window readings at
	// the moment of the transition (fallbacks only; zero on re-engage).
	WindowTimeoutRate float64
	WindowP99         sim.Time
}

// WithGuard wraps inner with a default-configured watchdog.
func WithGuard(inner server.Policy) *GuardedPolicy {
	return NewGuardedPolicy(inner, GuardConfig{})
}

// NewGuardedPolicy wraps inner with a watchdog tuned by cfg.
func NewGuardedPolicy(inner server.Policy, cfg GuardConfig) *GuardedPolicy {
	return &GuardedPolicy{inner: inner, cfg: cfg.withDefaults()}
}

var (
	_ server.Policy        = (*GuardedPolicy)(nil)
	_ server.StatsReporter = (*GuardedPolicy)(nil)
)

// Name implements server.Policy.
func (g *GuardedPolicy) Name() string { return "guarded(" + g.inner.Name() + ")" }

// Init implements server.Policy. The inner policy receives a guarded
// Control handle; the guard keeps the real one for safe-mode actuation.
//
// Init starts a fresh run: the guard is engaged, its health window is empty
// and its backoff and rollback budget are back at their configured start,
// because what a previous run left there is stamped on that run's clock.
// Stats and Transitions stay cumulative across runs.
func (g *GuardedPolicy) Init(c server.Control) {
	g.ctl = c
	g.sla = c.SLA()
	g.turbo = c.Ladder().Turbo
	g.gctl = &guardedControl{Control: c, g: g}
	g.safeMode = false
	g.retryAt = 0
	g.rollbacks = 0
	g.invalidBase = int(g.stats.InvalidActions)
	g.win.reset(g.sla)
	g.nextCheck = c.Now() + g.cfg.CheckEvery
	g.backoff = g.cfg.Backoff
	g.inner.Init(g.gctl)
}

// OnTick implements server.Policy.
func (g *GuardedPolicy) OnTick(now sim.Time) {
	if now >= g.nextCheck {
		g.checkHealth(now)
		g.nextCheck = now + g.cfg.CheckEvery
	}
	if g.safeMode {
		g.stats.SafeTicks++
		// Re-assert max frequency each tick: an actuation fault may have
		// dropped or delayed an earlier request, and throttles lift.
		for i := 0; i < g.ctl.NumCores(); i++ {
			if g.ctl.Freq(i) != g.turbo {
				g.ctl.SetTurbo(i)
			}
		}
		return
	}
	g.inner.OnTick(now)
}

// OnArrival implements server.Policy.
func (g *GuardedPolicy) OnArrival(r *server.Request) {
	if !g.safeMode {
		g.inner.OnArrival(r)
	}
}

// OnDispatch implements server.Policy.
func (g *GuardedPolicy) OnDispatch(r *server.Request, core int) {
	if !g.safeMode {
		g.inner.OnDispatch(r, core)
	}
}

// OnComplete implements server.Policy. Completions feed the health window
// in both modes; the inner policy only sees them when engaged.
func (g *GuardedPolicy) OnComplete(r *server.Request, core int) {
	now := g.ctl.Now()
	g.win.add(now, now-r.Arrive)
	if !g.safeMode {
		g.inner.OnComplete(r, core)
	}
}

// ResultStats implements server.StatsReporter.
func (g *GuardedPolicy) ResultStats() map[string]float64 {
	return map[string]float64{
		"guard.invalid_actions": float64(g.stats.InvalidActions),
		"guard.rollbacks":       float64(g.stats.Rollbacks),
		"guard.fallbacks":       float64(g.stats.Fallbacks),
		"guard.reengages":       float64(g.stats.Reengages),
		"guard.safe_ticks":      float64(g.stats.SafeTicks),
	}
}

// Stats returns the watchdog's intervention counters.
func (g *GuardedPolicy) Stats() GuardStats { return g.stats }

// SafeMode reports whether the guard is currently in safe mode.
func (g *GuardedPolicy) SafeMode() bool { return g.safeMode }

// windowHealth reads the pruned window's timeout rate and exact p99; ok
// reports whether the window passes the configured limits.
func (g *GuardedPolicy) windowHealth() (rate float64, p99 sim.Time, ok bool) {
	n := g.win.len()
	if n < g.cfg.MinSamples {
		// Too few samples to judge either way; treat as healthy so an
		// idle period neither trips nor blocks re-engagement.
		return 0, 0, true
	}
	rate = float64(g.win.timeouts) / float64(n)
	// The p99 is rounded through float64, which is exact for every
	// latency below 2^53 ns.
	p99 = sim.Time(float64(g.win.kth(int(math.Ceil(0.99*float64(n))) - 1)))
	ok = rate <= g.cfg.TimeoutRateLimit && p99 <= sim.Time(p99Factor*float64(g.sla))
	return rate, p99, ok
}

func (g *GuardedPolicy) checkHealth(now sim.Time) {
	g.win.prune(now - window)
	if g.safeMode {
		if now >= g.retryAt {
			if _, _, ok := g.windowHealth(); ok {
				g.reengage(now)
			}
		}
		return
	}
	rate, p99, ok := g.windowHealth()
	if !ok || int(g.stats.InvalidActions)-g.invalidAtWindowStart() > maxInvalid {
		g.fallback(now, rate, p99)
	} else if g.rollbacks > 0 && g.win.len() >= g.cfg.MinSamples {
		// A rolled-back policy survived a full-sample healthy window; its
		// rollback budget resets.
		g.rollbacks = 0
	}
}

// invalidAtWindowStart: invalid actions are counted cumulatively; the guard
// trips on the count accumulated since the last mode change.
func (g *GuardedPolicy) invalidAtWindowStart() int { return g.invalidBase }

// fallback escalates a breach; rate and p99 are the window reading the
// check that found it took.
func (g *GuardedPolicy) fallback(now sim.Time, rate float64, p99 sim.Time) {
	// Escalation rung 1: swap the inner policy back to its last-good
	// version and stay engaged. Pinning max frequency (rung 2) burns the
	// whole power budget; a known-good policy usually restores QoS without
	// giving up power management.
	if g.cfg.Rollback != nil && g.rollbacks < g.cfg.MaxRollbacks && g.cfg.Rollback() {
		g.rollbacks++
		g.stats.Rollbacks++
		g.Transitions = append(g.Transitions, GuardTransition{
			At: now, RolledBack: true, WindowTimeoutRate: rate, WindowP99: p99})
		g.invalidBase = int(g.stats.InvalidActions)
		// Judge the rolled-back policy on its own completions.
		g.win.clear()
		return
	}
	g.safeMode = true
	g.stats.Fallbacks++
	g.Transitions = append(g.Transitions, GuardTransition{
		At: now, ToSafe: true, WindowTimeoutRate: rate, WindowP99: p99})
	g.retryAt = now + g.backoff
	if g.backoff < maxBackoff {
		g.backoff *= 2
	}
	// Clear the window so safe mode is judged on its own completions.
	g.win.clear()
	// Safe mode runs at full capacity: every core enabled, pinned to turbo.
	if t := g.ctl.Topology(); t != nil {
		counts := make([]int, len(t.Classes))
		for i, c := range t.Classes {
			counts[i] = c.Count
		}
		g.ctl.SetPlacement(counts)
	}
	for i := 0; i < g.ctl.NumCores(); i++ {
		g.ctl.SetTurbo(i)
	}
}

func (g *GuardedPolicy) reengage(now sim.Time) {
	g.safeMode = false
	g.stats.Reengages++
	g.Transitions = append(g.Transitions, GuardTransition{At: now})
	g.invalidBase = int(g.stats.InvalidActions)
	g.win.clear()
	g.inner.OnTick(now)
}

// validFreq vets a frequency request from the inner policy.
func (g *GuardedPolicy) validFreq(f cpu.Freq) (cpu.Freq, bool) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) || f <= 0 {
		g.stats.InvalidActions++
		return 0, false
	}
	if f > g.turbo {
		// Out-of-ladder high request: clamp rather than reject, but count
		// it — a policy emitting these repeatedly is malfunctioning.
		g.stats.InvalidActions++
		return g.turbo, true
	}
	return f, true
}

// guardedControl is the Control handle the inner policy actuates through.
// Observation methods pass through; actuation is validated, and suppressed
// entirely while the guard is in safe mode (a degraded policy must not
// fight the safe-mode frequency pin).
type guardedControl struct {
	server.Control
	g *GuardedPolicy
}

func (gc *guardedControl) SetFreq(core int, f cpu.Freq) {
	if gc.g.safeMode {
		return
	}
	if vf, ok := gc.g.validFreq(f); ok {
		gc.Control.SetFreq(core, vf)
	}
}

func (gc *guardedControl) SetTurbo(core int) {
	if gc.g.safeMode {
		return
	}
	gc.Control.SetTurbo(core)
}

func (gc *guardedControl) SetScore(core int, score float64) {
	if gc.g.safeMode {
		return
	}
	if math.IsNaN(score) || math.IsInf(score, 0) {
		gc.g.stats.InvalidActions++
		return
	}
	gc.Control.SetScore(core, score)
}

// SetPlacement is suppressed in safe mode: the guard's frequency pin runs
// with every core enabled, so a degraded policy cannot shrink capacity.
func (gc *guardedControl) SetPlacement(counts []int) {
	if gc.g.safeMode {
		return
	}
	gc.Control.SetPlacement(counts)
}

func (gc *guardedControl) Sleep(core int, state cpu.CState) bool {
	if gc.g.safeMode {
		return false
	}
	return gc.Control.Sleep(core, state)
}
