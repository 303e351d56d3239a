// Package cpu models the processor the paper's testbed uses: a multi-core
// CPU whose per-core frequency can be scaled at runtime (DVFS) with a
// microsecond-scale transition latency, over a discrete frequency ladder
// from FreqMin to FreqMax plus a turbo state above the ladder.
//
// The paper's machine is an Intel Xeon Gold 5218R (0.8–2.1 GHz under the
// Linux "userspace" governor, plus turbo). The defaults here mirror that.
package cpu

import (
	"fmt"
	"math"

	"github.com/deeppower/deeppower/internal/sim"
)

// Freq is a core frequency in GHz.
type Freq float64

// String formats the frequency, e.g. "2.1GHz".
func (f Freq) String() string { return fmt.Sprintf("%.2gGHz", float64(f)) }

// Ladder describes the discrete DVFS operating points of a processor.
type Ladder struct {
	Min   Freq // lowest P-state, e.g. 0.8 GHz
	Max   Freq // highest non-turbo P-state, e.g. 2.1 GHz
	Step  Freq // grid spacing, e.g. 0.1 GHz
	Turbo Freq // turbo frequency, above Max

	// TransitionLatency is how long a requested frequency change takes to
	// become effective ("a delay in a few microseconds", §1).
	TransitionLatency sim.Time
}

// DefaultLadder returns the Xeon Gold 5218R-like ladder used throughout the
// evaluation: 0.8–2.1 GHz in 0.1 GHz steps, 2.8 GHz turbo, 10 µs switches.
func DefaultLadder() Ladder {
	return Ladder{
		Min:               0.8,
		Max:               2.1,
		Step:              0.1,
		Turbo:             2.8,
		TransitionLatency: 10 * sim.Microsecond,
	}
}

// Validate reports an error if the ladder is malformed.
func (l Ladder) Validate() error {
	switch {
	case l.Min <= 0:
		return fmt.Errorf("cpu: ladder Min %v must be positive", l.Min)
	case l.Max < l.Min:
		return fmt.Errorf("cpu: ladder Max %v below Min %v", l.Max, l.Min)
	case l.Step <= 0:
		return fmt.Errorf("cpu: ladder Step %v must be positive", l.Step)
	case l.Turbo < l.Max:
		return fmt.Errorf("cpu: ladder Turbo %v below Max %v", l.Turbo, l.Max)
	case l.TransitionLatency < 0:
		return fmt.Errorf("cpu: negative transition latency")
	}
	return nil
}

// Levels enumerates the ladder's non-turbo operating points ascending,
// followed by the turbo frequency as the final element.
func (l Ladder) Levels() []Freq {
	out := make([]Freq, 0, l.NumLevels())
	for f := l.Min; f <= l.Max+l.Step/1000; f += l.Step {
		out = append(out, l.quantizeExact(f))
	}
	if l.Turbo > l.Max {
		out = append(out, l.Turbo)
	}
	return out
}

// NumLevels reports how many operating points Levels returns.
func (l Ladder) NumLevels() int {
	n := 0
	for f := l.Min; f <= l.Max+l.Step/1000; f += l.Step {
		n++
	}
	if l.Turbo > l.Max {
		n++
	}
	return n
}

// Quantize clamps f into [Min, Max] and snaps it to the nearest grid point.
// It never returns Turbo; use the Turbo field explicitly to engage turbo.
func (l Ladder) Quantize(f Freq) Freq {
	if math.IsNaN(float64(f)) || f <= l.Min {
		return l.Min
	}
	if f >= l.Max {
		return l.Max
	}
	return l.gridPoint(l.gridStep(f))
}

// Snap is the target a request for f actuates: f quantized to the ladder,
// unless it is the turbo frequency exactly.
func (l Ladder) Snap(f Freq) Freq {
	if f != l.Turbo {
		f = l.Quantize(f)
	}
	return f
}

// gridStep returns the index of the grid point nearest f, for f strictly
// between Min and Max.
func (l Ladder) gridStep(f Freq) float64 {
	return math.Round(float64(f-l.Min) / float64(l.Step))
}

// gridPoint returns grid point k.
func (l Ladder) gridPoint(k float64) Freq {
	return l.quantizeExact(l.Min + Freq(k)*l.Step)
}

// quantizeExact rounds away float drift so 0.8+5*0.1 prints as 1.3.
func (l Ladder) quantizeExact(f Freq) Freq {
	return Freq(math.Round(float64(f)*1e6) / 1e6)
}

// atScore is Interpolate before quantization.
func (l Ladder) atScore(score float64) Freq {
	if math.IsNaN(score) || score < 0 {
		score = 0
	}
	if score > 1 {
		score = 1
	}
	return l.Min + Freq(score)*(l.Max-l.Min)
}

// Core is one physical core with DVFS state. A frequency request takes
// TransitionLatency to become effective; Cycles integrates the retired
// cycle count across the switch boundary exactly.
type Core struct {
	id     int
	ladder Ladder

	cur       Freq     // effective frequency
	pending   Freq     // requested frequency not yet effective
	pendingAt sim.Time // when pending becomes effective (0 = none)

	transitions int // completed SetFreq requests that changed the target

	// levels[k] is the target SetFreq arrives at when asked for grid point
	// k, built once so a score maps to its target without quantizing twice.
	levels []Freq
	// memoLo and memoHi are the lowest and highest scores ScoreLevel has
	// mapped to memoLevel since that level was last new. The map is
	// monotone, so every score between them maps to memoLevel too.
	memoLo, memoHi float64
	memoLevel      Freq

	// Sleep-state extension (see cstate.go).
	cstate  CState
	awakeAt sim.Time
}

// NewCore returns a core starting at the ladder's maximum frequency, which is
// how the OS hands cores to the baseline (no power management) configuration.
func NewCore(id int, ladder Ladder) *Core {
	c := &Core{id: id, ladder: ladder, cur: ladder.Max, pending: ladder.Max,
		memoLo: math.NaN(), memoHi: math.NaN(), memoLevel: Freq(math.NaN())}
	// gridStep is monotone in f and f stays below Max, so the last index a
	// score can reach is Max's own.
	c.levels = make([]Freq, int(ladder.gridStep(ladder.Max))+1)
	for k := range c.levels {
		c.levels[k] = ladder.Snap(ladder.gridPoint(float64(k)))
	}
	return c
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// Ladder returns the core's frequency ladder.
func (c *Core) Ladder() Ladder { return c.ladder }

// Target returns the most recently requested frequency (which may not yet be
// effective).
func (c *Core) Target() Freq {
	if c.pendingAt > 0 {
		return c.pending
	}
	return c.cur
}

// FreqAt returns the effective frequency at time t (t must not precede the
// last interaction with the core).
func (c *Core) FreqAt(t sim.Time) Freq {
	if c.pendingAt > 0 && t >= c.pendingAt {
		return c.pending
	}
	return c.cur
}

// SetFreq requests frequency f (quantized to the ladder unless it equals the
// turbo frequency exactly) at time now. The change becomes effective at
// now + TransitionLatency. Setting the current target again is a no-op.
func (c *Core) SetFreq(now sim.Time, f Freq) {
	c.SetLevel(now, c.ladder.Snap(f))
}

// ScoreLevel maps a thread-controller score below 1 to the target that
// SetFreq(Ladder.Interpolate(score)) arrives at — the same arithmetic up to
// the grid index, then the level table in place of two quantizations.
func (c *Core) ScoreLevel(score float64) Freq {
	if score >= c.memoLo && score <= c.memoHi {
		return c.memoLevel
	}
	f := c.scoreLevel(score)
	switch {
	case math.IsNaN(score):
	case f != c.memoLevel:
		c.memoLo, c.memoHi, c.memoLevel = score, score, f
	case score < c.memoLo:
		c.memoLo = score
	default:
		c.memoHi = score
	}
	return f
}

// scoreLevel is ScoreLevel without the memo.
func (c *Core) scoreLevel(score float64) Freq {
	l := &c.ladder
	f := l.atScore(score)
	if math.IsNaN(float64(f)) || f <= l.Min {
		return l.Min
	}
	if f >= l.Max {
		return l.Max
	}
	return c.levels[int(l.gridStep(f))]
}

// SetLevel is SetFreq for a frequency that is already a target of this
// core's ladder (a ScoreLevel result or the turbo frequency): it is taken as
// given.
func (c *Core) SetLevel(now sim.Time, f Freq) {
	c.settle(now)
	if f == c.Target() {
		return
	}
	// A newer request supersedes any in-flight one.
	c.pending = f
	c.pendingAt = now + c.ladder.TransitionLatency
	if c.pendingAt == now { // zero-latency ladders apply immediately
		c.cur = f
		c.pendingAt = 0
	}
	c.transitions++
}

// SetTurbo requests the turbo frequency.
func (c *Core) SetTurbo(now sim.Time) { c.SetFreq(now, c.ladder.Turbo) }

// settle folds a matured pending change into cur.
func (c *Core) settle(now sim.Time) {
	if c.pendingAt > 0 && now >= c.pendingAt {
		c.cur = c.pending
		c.pendingAt = 0
	}
}

// PendingSwitch reports an in-flight DVFS transition: the time it matures
// and the frequency it switches to. ok is false when no switch is pending.
func (c *Core) PendingSwitch() (at sim.Time, f Freq, ok bool) {
	if c.pendingAt > 0 {
		return c.pendingAt, c.pending, true
	}
	return 0, 0, false
}

// Segment is a span of time during which the core's frequency is constant.
type Segment struct {
	From, To sim.Time
	F        Freq
}

// SegmentsInto is the allocation-free form of Segments: it writes the spans
// into out and returns how many were written (1 or 2). Hot accounting loops
// pass a stack buffer so per-tick power integration allocates nothing.
func (c *Core) SegmentsInto(from, to sim.Time, out *[2]Segment) int {
	if to < from {
		panic(fmt.Sprintf("cpu: Segments interval reversed: %v > %v", from, to))
	}
	if c.pendingAt > from && c.pendingAt < to {
		out[0] = Segment{From: from, To: c.pendingAt, F: c.cur}
		out[1] = Segment{From: c.pendingAt, To: to, F: c.pending}
		return 2
	}
	out[0] = Segment{From: from, To: to, F: c.FreqAt(from)}
	return 1
}
