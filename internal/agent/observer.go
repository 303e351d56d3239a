// Package agent implements the DeepPower framework of the paper's §4: the
// state observer, the reward calculator, the DRL agent (DDPG) driving the
// thread controller's parameters, and the training loop of Algorithm 2.
package agent

import (
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// StateDim is the dimension of the observation vector (§4.4.1).
const StateDim = 8

// State vector component indices.
const (
	StateNumReq = iota // requests received in the last period
	StateQueueLen
	StateQueue25 // queued requests with < 25% of the SLA budget left
	StateQueue50
	StateQueue75
	StateCore25 // in-service requests with < 25% of the SLA budget left
	StateCore50
	StateCore75
)

// Observer converts server snapshots into the paper's 8-dimensional
// normalized state vector. Each component is divided by a running maximum so
// the representation stays in [0,1] without application-specific tuning.
// With classes > 0 the vector gains two components per core class — busy
// fraction and enabled fraction — so a placement-aware agent sees where its
// threads sit on a heterogeneous topology.
type Observer struct {
	sla          sim.Time
	classes      int
	lastArrivals uint64
	norms        [StateDim]float64
}

// NewObserver returns an observer for an application with the given SLA.
// The SLA must be positive: every state component is a fraction of it, and
// a zero SLA would turn the whole state vector into NaNs.
func NewObserver(sla sim.Time) *Observer {
	return NewObserverClasses(sla, 0)
}

// NewObserverClasses returns an observer that additionally emits per-class
// busy/enabled fractions for classes core classes (0 = the flat 8-dim
// state). Snapshots from a homogeneous server leave those dims zero.
func NewObserverClasses(sla sim.Time, classes int) *Observer {
	if sla <= 0 {
		panic("agent: NewObserver requires a positive SLA")
	}
	if classes < 0 {
		panic("agent: negative class count")
	}
	o := &Observer{sla: sla, classes: classes}
	for i := range o.norms {
		o.norms[i] = 1
	}
	return o
}

// Dim returns the observation vector's length.
func (o *Observer) Dim() int { return StateDim + 2*o.classes }

// Reset clears inter-step memory (arrival deltas) at episode boundaries,
// keeping learned normalization.
func (o *Observer) Reset() { o.lastArrivals = 0 }

// Raw computes the unnormalized state vector from a snapshot.
func (o *Observer) Raw(snap server.Snapshot) [StateDim]float64 {
	var v [StateDim]float64
	v[StateNumReq] = float64(snap.Counters.Arrivals - o.lastArrivals)
	v[StateQueueLen] = float64(snap.QueueLen)
	for _, rem := range snap.QueueSLARemaining {
		frac := float64(rem) / float64(o.sla)
		if frac < 0.25 {
			v[StateQueue25]++
		}
		if frac < 0.50 {
			v[StateQueue50]++
		}
		if frac < 0.75 {
			v[StateQueue75]++
		}
	}
	for _, rem := range snap.CoreSLARemaining {
		frac := float64(rem) / float64(o.sla)
		if frac < 0.25 {
			v[StateCore25]++
		}
		if frac < 0.50 {
			v[StateCore50]++
		}
		if frac < 0.75 {
			v[StateCore75]++
		}
	}
	return v
}

// Observe produces the normalized state vector and advances the arrival
// delta tracking.
func (o *Observer) Observe(snap server.Snapshot) []float64 {
	raw := o.Raw(snap)
	o.lastArrivals = snap.Counters.Arrivals
	out := make([]float64, o.Dim())
	for i, x := range raw {
		if x > o.norms[i] {
			o.norms[i] = x
		}
		out[i] = x / o.norms[i]
	}
	// Per-class busy/enabled fractions are already in [0,1]; no running-max
	// normalization needed. Missing classes (homogeneous server) stay zero.
	for c := 0; c < o.classes && c < len(snap.Classes); c++ {
		cs := snap.Classes[c]
		if cs.Cores > 0 {
			out[StateDim+2*c] = float64(cs.Busy) / float64(cs.Cores)
			out[StateDim+2*c+1] = float64(cs.Enabled) / float64(cs.Cores)
		}
	}
	return out
}
