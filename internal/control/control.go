// Package control implements the paper's thread controller (Algorithm 1):
// the bottom layer of the hierarchical mechanism. Every ShortTime it
// computes, for each core,
//
//	consumed = (now - beginTime) / SLA
//	score    = consumed · ScalingCoef + BaseFreq
//
// and sets the core to turbo when score ≥ 1, otherwise to the linear
// interpolation between the minimum and maximum frequency at the score.
// The two parameters (BaseFreq, ScalingCoef) are the DRL agent's action,
// updated once per LongTime.
package control

import (
	"fmt"
	"math"

	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// Params are the thread controller's two knobs, both in [0,1] (the actor's
// sigmoid-bounded outputs, §4.4.3).
type Params struct {
	// BaseFreq positions an idle or freshly-started request on the ladder.
	BaseFreq float64
	// ScalingCoef controls how fast frequency rises as a request consumes
	// its SLA budget.
	ScalingCoef float64
}

// Validate reports an error for out-of-range or non-finite parameters.
func (p Params) Validate() error {
	if !(p.BaseFreq >= 0 && p.BaseFreq <= 1 && p.ScalingCoef >= 0 && p.ScalingCoef <= 1) {
		return fmt.Errorf("control: params %+v outside [0,1]", p)
	}
	return nil
}

// Score computes Algorithm 1 line 5 for a request that has been in service
// for elapsed, under SLA sla.
func (p Params) Score(elapsed, sla sim.Time) float64 {
	consumed := float64(elapsed) / float64(sla)
	return consumed*p.ScalingCoef + p.BaseFreq
}

// ThreadController scales every core's frequency each tick based on the
// current Params and each in-flight request's consumed time. It implements
// server.Policy so it can run standalone with fixed parameters (the Fig. 11
// experiment); DeepPower embeds it and updates Params from the DRL agent.
// It is not safe for concurrent use: like the Server that drives it, it
// belongs to one goroutine, which both reads the params (every tick and
// dispatch) and sets them (the agent's action, taken from the server's own
// callbacks).
type ThreadController struct {
	server.BasePolicy

	params Params
}

// NewThreadController returns a controller with initial parameters.
func NewThreadController(initial Params) *ThreadController {
	return &ThreadController{params: initial}
}

// Name implements server.Policy.
func (tc *ThreadController) Name() string {
	p := tc.Params()
	return fmt.Sprintf("controller(b=%.2g,s=%.2g)", p.BaseFreq, p.ScalingCoef)
}

// Params returns the current parameters.
func (tc *ThreadController) Params() Params {
	return tc.params
}

// SetParams installs new parameters (the DRL agent's action, Fig. 3 ②).
// Out-of-range values are clamped into [0,1]; a NaN component — a diverged
// actor — is rejected, keeping that knob at its last good value.
func (tc *ThreadController) SetParams(p Params) {
	if math.IsNaN(p.BaseFreq) {
		p.BaseFreq = tc.params.BaseFreq
	}
	if math.IsNaN(p.ScalingCoef) {
		p.ScalingCoef = tc.params.ScalingCoef
	}
	if p.BaseFreq < 0 {
		p.BaseFreq = 0
	} else if p.BaseFreq > 1 {
		p.BaseFreq = 1
	}
	if p.ScalingCoef < 0 {
		p.ScalingCoef = 0
	} else if p.ScalingCoef > 1 {
		p.ScalingCoef = 1
	}
	tc.params = p
}

// OnTick implements server.Policy: Algorithm 1's inner loop over cores.
func (tc *ThreadController) OnTick(now sim.Time) {
	tc.Apply(now, tc.Ctl)
}

// Apply runs one controller pass against an arbitrary Control, so embedding
// policies can invoke it on their own cadence.
func (tc *ThreadController) Apply(now sim.Time, c server.Control) {
	p := tc.Params()
	sla := c.SLA()
	for i := 0; i < c.NumCores(); i++ {
		r := c.CoreRequest(i)
		if r == nil {
			if c.CoreParked(i) {
				// Placement disabled the core: hold it at its ladder
				// floor until it is re-enabled.
				c.SetScore(i, 0)
				continue
			}
			// No request processing: hold the core at BaseFreq (§4.2,
			// Fig. 4 caption).
			c.SetScore(i, p.BaseFreq)
			continue
		}
		c.SetScore(i, p.Score(now-r.Start, sla))
	}
}

// OnDispatch implements server.Policy: a newly dispatched request starts at
// its score immediately rather than waiting for the next tick, which matters
// for applications whose service time is comparable to the tick.
func (tc *ThreadController) OnDispatch(r *server.Request, core int) {
	p := tc.Params()
	tc.Ctl.SetScore(core, p.Score(0, tc.Ctl.SLA()))
}
