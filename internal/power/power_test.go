package power

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/sim"
)

func TestDefaultModelValid(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBad(t *testing.T) {
	bad := []Model{
		{Uncore: -1, DynCoef: 1, VoltBase: 1},
		{DynCoef: 0, VoltBase: 1},
		{DynCoef: 1, VoltBase: 0},
		{DynCoef: 1, VoltBase: 1, IdleFrac: 2},
	}
	for i, m := range bad {
		if m.Validate() == nil {
			t.Errorf("case %d: expected error for %+v", i, m)
		}
	}
}

func TestPowerIncreasesWithFrequency(t *testing.T) {
	m := DefaultModel()
	last := 0.0
	for _, f := range cpu.DefaultLadder().Levels() {
		p := m.CorePower(f, true)
		if p <= last {
			t.Fatalf("power not strictly increasing at %v: %v <= %v", f, p, last)
		}
		last = p
	}
}

func TestPowerSuperLinear(t *testing.T) {
	// Halving frequency should save more than half the dynamic power,
	// because voltage drops too. This is the core DVFS premise.
	m := DefaultModel()
	pHigh := m.CorePower(2.0, true) - m.LeakPerCore
	pLow := m.CorePower(1.0, true) - m.LeakPerCore
	if pLow >= pHigh/2 {
		t.Errorf("P(1.0)=%v not super-linearly below P(2.0)=%v", pLow, pHigh)
	}
}

func TestIdleBelowActive(t *testing.T) {
	m := DefaultModel()
	f := func(raw float64) bool {
		fr := cpu.Freq(0.8 + math.Mod(math.Abs(raw), 2.0))
		return m.CorePower(fr, false) < m.CorePower(fr, true)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSocketPower(t *testing.T) {
	m := DefaultModel()
	freqs := []cpu.Freq{2.1, 2.1}
	active := []bool{true, false}
	want := m.Uncore + m.CorePower(2.1, true) + m.CorePower(2.1, false)
	if got := m.SocketPower(freqs, active); math.Abs(got-want) > 1e-12 {
		t.Errorf("SocketPower = %v, want %v", got, want)
	}
}

func TestSocketPowerMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched SocketPower inputs did not panic")
		}
	}()
	DefaultModel().SocketPower([]cpu.Freq{1}, nil)
}

func TestTurboCostlierThanMax(t *testing.T) {
	m := DefaultModel()
	l := cpu.DefaultLadder()
	if m.CorePower(l.Turbo, true) <= m.CorePower(l.Max, true)*1.2 {
		t.Errorf("turbo %v W should cost well above max %v W",
			m.CorePower(l.Turbo, true), m.CorePower(l.Max, true))
	}
}

func TestCalibrationRoughlyXeon(t *testing.T) {
	// One socket fully busy at turbo should land in a plausible envelope
	// for a 125 W-TDP part being pushed past TDP (turbo).
	m := DefaultModel()
	freqs := make([]cpu.Freq, 20)
	active := make([]bool, 20)
	for i := range freqs {
		freqs[i] = 2.8
		active[i] = true
	}
	p := m.SocketPower(freqs, active)
	if p < 120 || p > 400 {
		t.Errorf("all-turbo socket power %v W implausible", p)
	}
	// And fully idle at the floor should be far lower.
	for i := range freqs {
		freqs[i] = 0.8
		active[i] = false
	}
	idle := m.SocketPower(freqs, active)
	if idle > p/3 {
		t.Errorf("idle floor %v W not far below busy %v W", idle, p)
	}
}

func TestMeterAccrue(t *testing.T) {
	mt := NewMeter()
	mt.Accrue(0, sim.Second, 100)
	mt.Accrue(sim.Second, 3*sim.Second, 50)
	if got := mt.Energy(); math.Abs(got-200) > 1e-9 {
		t.Errorf("Energy = %v, want 200", got)
	}
}

func TestMeterReversedPanics(t *testing.T) {
	mt := NewMeter()
	defer func() {
		if recover() == nil {
			t.Error("reversed Accrue did not panic")
		}
	}()
	mt.Accrue(5, 1, 10)
}

func TestMeterNegativePowerPanics(t *testing.T) {
	mt := NewMeter()
	defer func() {
		if recover() == nil {
			t.Error("negative power did not panic")
		}
	}()
	mt.Accrue(0, 1, -1)
}

// Energy accrual must be additive regardless of how an interval is split.
func TestMeterAdditivity(t *testing.T) {
	f := func(splitRaw uint16, watts uint16) bool {
		total := sim.Second
		split := sim.Time(splitRaw) % total
		w := float64(watts)
		a := NewMeter()
		a.Accrue(0, total, w)
		b := NewMeter()
		b.Accrue(0, split, w)
		b.Accrue(split, total, w)
		return math.Abs(a.Energy()-b.Energy()) < 1e-9*(1+a.Energy())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkCorePower(b *testing.B) {
	m := DefaultModel()
	for i := 0; i < b.N; i++ {
		m.CorePower(2.1, i%2 == 0)
	}
}
