// Observers and oracles only this package's tests read: the reachability
// fence (internal/reach, DESIGN.md "What ships") keeps them out of the
// shipped files.
package cpu

import "github.com/deeppower/deeppower/internal/sim"

// Interpolate maps a score in [0,1] onto the ladder linearly:
// 0 → Min, 1 → Max, then quantizes. Scores outside [0,1] are clamped.
// This is the interpolation step of the paper's thread controller
// (Algorithm 1, line 9).
func (l Ladder) Interpolate(score float64) Freq {
	return l.Quantize(l.atScore(score))
}

// Transitions reports how many effective frequency changes were requested.
func (c *Core) Transitions() int { return c.transitions }

// Segments splits [from, to] into spans of constant frequency (one span, or
// two if a pending DVFS transition matures inside the interval).
func (c *Core) Segments(from, to sim.Time) []Segment {
	var buf [2]Segment
	n := c.SegmentsInto(from, to, &buf)
	out := make([]Segment, n)
	copy(out, buf[:n])
	return out
}

// Asleep reports whether the core is in a sleep state (or still waking) at
// time now.
func (c *Core) Asleep(now sim.Time) bool {
	return c.cstate != C0 || now < c.awakeAt
}
