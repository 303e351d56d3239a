package cpu

import (
	"fmt"

	"github.com/deeppower/deeppower/internal/sim"
)

// CState is a core sleep state. The paper's §6 discusses sleep-state
// methods (DynSleep, µDPM) and leaves integrating them with DeepPower as
// future work; this model implements that extension: an idle core can be
// put into a C-state, paying a wake-up latency (~100 µs for C6, as the
// paper quotes) when the next request arrives.
type CState int

// Supported sleep states.
const (
	// C0 is the active/idle running state (no sleep).
	C0 CState = iota
	// C1 is a light halt: cheap to enter and leave.
	C1
	// C6 is a deep sleep: large power savings, ~100 µs wake-up.
	C6
)

// String names the state.
func (c CState) String() string {
	switch c {
	case C0:
		return "C0"
	case C1:
		return "C1"
	case C6:
		return "C6"
	}
	return fmt.Sprintf("CState(%d)", int(c))
}

// WakeLatency returns how long a core needs to resume execution from the
// state ("about 100us for C6 state", §6).
func (c CState) WakeLatency() sim.Time {
	switch c {
	case C1:
		return 2 * sim.Microsecond
	case C6:
		return 100 * sim.Microsecond
	default:
		return 0
	}
}

// PowerFactor scales the core's idle power in this state: C1 gates most of
// the clock tree; C6 power-gates the core almost entirely.
func (c CState) PowerFactor() float64 {
	switch c {
	case C1:
		return 0.40
	case C6:
		return 0.03
	default:
		return 1.0
	}
}

// CState returns the core's current sleep state.
func (c *Core) CState() CState { return c.cstate }

// Sleep puts the core into state at time now. Only the simulation layer
// should call this for idle cores; sleeping a busy core is a caller bug and
// panics.
func (c *Core) Sleep(now sim.Time, state CState) {
	if state == C0 {
		c.WakeUp(now)
		return
	}
	c.cstate = state
	c.awakeAt = 0
}

// WakeUp begins the transition back to C0 at time now and returns when the
// core will be able to execute. Waking an awake core returns now (or the
// end of an in-flight wake-up).
func (c *Core) WakeUp(now sim.Time) sim.Time {
	if c.cstate == C0 {
		if now < c.awakeAt {
			return c.awakeAt
		}
		return now
	}
	lat := c.cstate.WakeLatency()
	c.cstate = C0
	c.awakeAt = now + lat
	return c.awakeAt
}
