// Observers and oracles only this package's tests read: the reachability
// fence (internal/reach, DESIGN.md "What ships") keeps them out of the
// shipped files.
package cpu

import (
	"fmt"

	"github.com/deeppower/deeppower/internal/sim"
)

// Interpolate maps a score in [0,1] onto the ladder linearly:
// 0 → Min, 1 → Max, then quantizes. Scores outside [0,1] are clamped.
// This is the interpolation step of the paper's thread controller
// (Algorithm 1, line 9).
func (l Ladder) Interpolate(score float64) Freq {
	return l.Quantize(l.atScore(score))
}

// Transitions reports how many effective frequency changes were requested.
func (c *Core) Transitions() int { return c.transitions }

// Cycles returns how many billions of cycles (GHz·seconds) the core retires
// between from and to, integrating across a pending frequency switch.
//
// Parked, not an observer: only its own tests read it. ROADMAP's
// reachability item deletes it with those tests.
func (c *Core) Cycles(from, to sim.Time) float64 {
	if to < from {
		panic(fmt.Sprintf("cpu: Cycles interval reversed: %v > %v", from, to))
	}
	if c.pendingAt > 0 && c.pendingAt < to {
		split := c.pendingAt
		if split < from {
			split = from
		}
		return float64(c.cur)*(split-from).Seconds() + float64(c.pending)*(to-split).Seconds()
	}
	return float64(c.FreqAt(from)) * (to - from).Seconds()
}

// Segments splits [from, to] into spans of constant frequency (one span, or
// two if a pending DVFS transition matures inside the interval).
func (c *Core) Segments(from, to sim.Time) []Segment {
	var buf [2]Segment
	n := c.SegmentsInto(from, to, &buf)
	out := make([]Segment, n)
	copy(out, buf[:n])
	return out
}

// TimeFor returns how long the core needs, starting at from, to retire
// gcycles billions of cycles, accounting for a pending frequency switch.
// It returns sim.MaxTime if the work can never finish (zero frequency).
//
// Parked, not an observer: only its own tests read it. ROADMAP's
// reachability item deletes it with those tests.
func (c *Core) TimeFor(from sim.Time, gcycles float64) sim.Time {
	if gcycles <= 0 {
		return 0
	}
	f0 := c.FreqAt(from)
	if c.pendingAt > from {
		// Work done before the switch matures.
		head := float64(f0) * (c.pendingAt - from).Seconds()
		if head >= gcycles {
			return sim.Seconds(gcycles / float64(f0))
		}
		rest := gcycles - head
		if c.pending <= 0 {
			return sim.MaxTime
		}
		return (c.pendingAt - from) + sim.Seconds(rest/float64(c.pending))
	}
	if f0 <= 0 {
		return sim.MaxTime
	}
	return sim.Seconds(gcycles / float64(f0))
}

// Asleep reports whether the core is in a sleep state (or still waking) at
// time now.
func (c *Core) Asleep(now sim.Time) bool {
	return c.cstate != C0 || now < c.awakeAt
}
