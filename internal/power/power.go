// Package power models the socket power the paper reads from Intel RAPL.
//
// RAPL is, from the framework's point of view, an energy integrator: the
// evaluation reads the socket energy counter before and after an interval and
// divides by its length. This package provides (i) an analytic CMOS power
// model P(f) that reproduces the DVFS power/performance trade-off, and
// (ii) a Meter that integrates it into an energy counter with RAPL-like
// window queries.
package power

import (
	"fmt"

	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/sim"
)

// Model describes socket power as a function of per-core frequency and
// activity:
//
//	P_core_active(f) = LeakPerCore + DynCoef · f · V(f)²      (CMOS dynamic power)
//	P_core_idle(f)   = LeakPerCore + IdleFrac · DynCoef · f · V(f)²
//	V(f)             = VoltBase + VoltSlope · f                (DVFS voltage curve)
//	P_socket         = Uncore + Σ_cores P_core
//
// Voltage rising with frequency is what makes DVFS super-linear in power and
// is the entire reason frequency scaling saves energy.
type Model struct {
	// Uncore is the frequency-independent package power: memory controller,
	// LLC, fabric (watts).
	Uncore float64
	// LeakPerCore is static leakage per core (watts).
	LeakPerCore float64
	// DynCoef scales dynamic power: watts per (GHz · V²).
	DynCoef float64
	// VoltBase and VoltSlope define V(f) = VoltBase + VoltSlope·f, f in GHz.
	VoltBase, VoltSlope float64
	// IdleFrac is the fraction of dynamic power an idle (clock-gated but
	// not power-gated) core burns at its current operating point.
	IdleFrac float64
}

// DefaultModel returns coefficients loosely calibrated to one 20-core socket
// of a Xeon Gold 5218R (TDP 125 W): roughly 14 W per core fully active at
// turbo, 1.9 W at the 0.8 GHz floor, 18 W uncore.
func DefaultModel() Model {
	return Model{
		Uncore:      18.0,
		LeakPerCore: 0.4,
		DynCoef:     3.0,
		VoltBase:    0.60,
		VoltSlope:   0.25,
		IdleFrac:    0.12,
	}
}

// Validate reports an error for non-physical coefficients.
func (m Model) Validate() error {
	switch {
	case m.Uncore < 0 || m.LeakPerCore < 0 || m.DynCoef <= 0:
		return fmt.Errorf("power: non-positive coefficients: %+v", m)
	case m.VoltBase <= 0 || m.VoltSlope < 0:
		return fmt.Errorf("power: invalid voltage curve: %+v", m)
	case m.IdleFrac < 0 || m.IdleFrac > 1:
		return fmt.Errorf("power: IdleFrac %v outside [0,1]", m.IdleFrac)
	}
	return nil
}

// Voltage returns the operating voltage at frequency f.
func (m Model) Voltage(f cpu.Freq) float64 {
	return m.VoltBase + m.VoltSlope*float64(f)
}

// CorePower returns the power draw of one core at frequency f.
func (m Model) CorePower(f cpu.Freq, active bool) float64 {
	v := m.Voltage(f)
	dyn := m.DynCoef * float64(f) * v * v
	if !active {
		dyn *= m.IdleFrac
	}
	return m.LeakPerCore + dyn
}

// CorePowerScaled is CorePower with per-class curve scaling: dynScale
// multiplies the dynamic coefficient and leakScale the static leakage. With
// both factors 1 it is numerically identical to CorePower — the homogeneous
// fast path. Heterogeneous core classes (cpu.Class) carry their factors as
// plain floats so this package stays the only one that knows the curve.
func (m Model) CorePowerScaled(f cpu.Freq, active bool, dynScale, leakScale float64) float64 {
	v := m.Voltage(f)
	dyn := m.DynCoef * dynScale * float64(f) * v * v
	if !active {
		dyn *= m.IdleFrac
	}
	return m.LeakPerCore*leakScale + dyn
}

// Meter is a RAPL-like socket energy counter. Components report power-state
// intervals through Accrue; experiments read energy deltas exactly the way
// the paper reads the MSR_PKG_ENERGY_STATUS counter.
type Meter struct {
	energy float64 // joules since construction
}

// NewMeter returns a meter whose counter starts at zero.
func NewMeter() *Meter { return &Meter{} }

// Accrue adds watts·(to-from) joules to the counter. Intervals must be
// non-negative but may be reported out of order by different components.
func (mt *Meter) Accrue(from, to sim.Time, watts float64) {
	if to < from {
		panic(fmt.Sprintf("power: Accrue interval reversed: %v > %v", from, to))
	}
	if watts < 0 {
		panic("power: negative power")
	}
	mt.energy += watts * (to - from).Seconds()
}

// Energy returns cumulative joules.
func (mt *Meter) Energy() float64 { return mt.energy }
