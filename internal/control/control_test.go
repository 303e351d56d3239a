package control

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
	"github.com/deeppower/deeppower/internal/workload"
)

func TestParamsValidate(t *testing.T) {
	if (Params{0.5, 0.5}).Validate() != nil {
		t.Error("valid params rejected")
	}
	nan := math.NaN()
	for _, p := range []Params{{-0.1, 0}, {0, 1.1}, {2, 2}, {nan, 0.5}, {0.5, nan}} {
		if p.Validate() == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
}

func TestScore(t *testing.T) {
	p := Params{BaseFreq: 0.4, ScalingCoef: 1.0}
	sla := 8 * sim.Millisecond
	if got := p.Score(0, sla); got != 0.4 {
		t.Errorf("Score(0) = %v, want BaseFreq", got)
	}
	// Halfway through the SLA budget: 0.5·1.0 + 0.4 = 0.9.
	if got := p.Score(4*sim.Millisecond, sla); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("Score(half) = %v, want 0.9", got)
	}
	// Past the SLA: score exceeds 1 → turbo region.
	if got := p.Score(8*sim.Millisecond, sla); got < 1 {
		t.Errorf("Score(full SLA) = %v, want >= 1", got)
	}
}

func TestScoreMonotoneInElapsed(t *testing.T) {
	f := func(b, s, e1Raw, e2Raw uint16) bool {
		p := Params{BaseFreq: float64(b) / 65535, ScalingCoef: float64(s) / 65535}
		e1 := sim.Time(e1Raw) * sim.Microsecond
		e2 := sim.Time(e2Raw) * sim.Microsecond
		if e1 > e2 {
			e1, e2 = e2, e1
		}
		return p.Score(e1, sim.Millisecond) <= p.Score(e2, sim.Millisecond)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetParamsClamps(t *testing.T) {
	tc := NewThreadController(Params{})
	tc.SetParams(Params{BaseFreq: -3, ScalingCoef: 9})
	got := tc.Params()
	if got.BaseFreq != 0 || got.ScalingCoef != 1 {
		t.Errorf("clamped params = %+v", got)
	}
	// Infinities clamp like any out-of-range value.
	tc.SetParams(Params{BaseFreq: math.Inf(1), ScalingCoef: math.Inf(-1)})
	if got := tc.Params(); got.BaseFreq != 1 || got.ScalingCoef != 0 {
		t.Errorf("inf params = %+v, want {1 0}", got)
	}
	// A NaN component — a diverged actor — keeps the last good value
	// for that knob while the finite component still applies.
	tc.SetParams(Params{BaseFreq: math.NaN(), ScalingCoef: 0.6})
	if got := tc.Params(); got.BaseFreq != 1 || got.ScalingCoef != 0.6 {
		t.Errorf("NaN BaseFreq: params = %+v, want {1 0.6}", got)
	}
	tc.SetParams(Params{BaseFreq: 0.3, ScalingCoef: math.NaN()})
	if got := tc.Params(); got.BaseFreq != 0.3 || got.ScalingCoef != 0.6 {
		t.Errorf("NaN ScalingCoef: params = %+v, want {0.3 0.6}", got)
	}
}

func fixedProfile(service sim.Time, workers int, sla sim.Time) *app.Profile {
	return &app.Profile{
		Name: "fixed", SLA: sla, Workers: workers, RefFreq: 2.1,
		Sampler: constSampler{service},
	}
}

type constSampler struct{ service sim.Time }

func (c constSampler) Sample(*sim.RNG) app.Work {
	return app.Work{ServiceRef: c.service, Features: []float64{1}}
}
func (c constSampler) FeatureDim() int { return 1 }

func runController(t *testing.T, p Params, service, sla sim.Time, rate float64) *server.Result {
	t.Helper()
	eng := sim.NewEngine()
	tc := NewThreadController(p)
	s, err := server.New(eng, server.Config{
		App: fixedProfile(service, 2, sla), Seed: 9,
	}, tc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(workload.Constant(rate, sim.Second), 2*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestIdleCoresSitAtBaseFreq(t *testing.T) {
	// No arrivals: all cores should sit at the BaseFreq interpolation.
	eng := sim.NewEngine()
	tc := NewThreadController(Params{BaseFreq: 0.5, ScalingCoef: 1})
	s, err := server.New(eng, server.Config{
		App: fixedProfile(sim.Millisecond, 2, 10*sim.Millisecond), Seed: 1,
	}, tc)
	if err != nil {
		t.Fatal(err)
	}
	ft := s.EnableFreqTrace(100*sim.Millisecond, 200*sim.Millisecond)
	if _, err := s.Run(workload.Constant(0.0001, sim.Second), sim.Second); err != nil {
		t.Fatal(err)
	}
	l := cpu.DefaultLadder()
	want := float64(l.Quantize(l.Min + 0.5*(l.Max-l.Min))) // Algorithm 1 line 9 at score 0.5
	for _, row := range ft.Freqs {
		for _, f := range row {
			if f != want {
				t.Fatalf("idle core at %v GHz, want %v", f, want)
			}
		}
	}
}

func TestHigherBaseFreqFasterButCostlier(t *testing.T) {
	lo := runController(t, Params{BaseFreq: 0.1, ScalingCoef: 0.2},
		2*sim.Millisecond, 50*sim.Millisecond, 200)
	hi := runController(t, Params{BaseFreq: 0.9, ScalingCoef: 0.2},
		2*sim.Millisecond, 50*sim.Millisecond, 200)
	if hi.Latency.Mean >= lo.Latency.Mean {
		t.Errorf("high BaseFreq mean latency %v not below low %v",
			hi.Latency.Mean, lo.Latency.Mean)
	}
	if hi.AvgPowerW <= lo.AvgPowerW {
		t.Errorf("high BaseFreq power %v not above low %v", hi.AvgPowerW, lo.AvgPowerW)
	}
}

func TestScalingCoefRescuesLongRequests(t *testing.T) {
	// Tight SLA relative to service time at low frequency: without
	// scaling, low BaseFreq times out; with a high ScalingCoef, the
	// controller ramps to turbo and rescues requests.
	service := 4 * sim.Millisecond
	sla := 6 * sim.Millisecond
	noScale := runController(t, Params{BaseFreq: 0.05, ScalingCoef: 0}, service, sla, 100)
	scale := runController(t, Params{BaseFreq: 0.05, ScalingCoef: 1}, service, sla, 100)
	if scale.TimeoutRate >= noScale.TimeoutRate {
		t.Errorf("ScalingCoef did not reduce timeouts: %v vs %v",
			scale.TimeoutRate, noScale.TimeoutRate)
	}
	if scale.Latency.P99 >= noScale.Latency.P99 {
		t.Errorf("ScalingCoef did not reduce p99: %v vs %v",
			scale.Latency.P99, noScale.Latency.P99)
	}
}

// Fig. 4's shape: during a request, frequency is non-decreasing until
// completion (the controller only ramps up as consumed time grows).
func TestFrequencyRampsDuringRequest(t *testing.T) {
	eng := sim.NewEngine()
	tc := NewThreadController(Params{BaseFreq: 0.2, ScalingCoef: 0.9})
	prof := fixedProfile(20*sim.Millisecond, 1, 30*sim.Millisecond)
	s, err := server.New(eng, server.Config{App: prof, Seed: 3}, tc)
	if err != nil {
		t.Fatal(err)
	}
	ft := s.EnableFreqTrace(0, sim.Second)
	if _, err := s.Run(workload.Constant(10, sim.Second), sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(ft.Begins) == 0 {
		t.Fatal("no requests in window")
	}
	// Between each begin/end pair on core 0, frequency must be
	// non-decreasing.
	for bi, begin := range ft.Begins {
		var end sim.Time = sim.MaxTime
		for _, e := range ft.Ends {
			if e.At > begin.At {
				end = e.At
				break
			}
		}
		last := 0.0
		for i, tm := range ft.Times {
			if tm <= begin.At || tm >= end {
				continue
			}
			f := ft.Freqs[i][0]
			if f+1e-9 < last {
				t.Fatalf("request %d: frequency dropped %v → %v mid-request", bi, last, f)
			}
			last = f
		}
	}
}

func TestApplyScoresTurboPastSLA(t *testing.T) {
	// Run far beyond SLA: the core must reach turbo.
	eng := sim.NewEngine()
	tc := NewThreadController(Params{BaseFreq: 0.0, ScalingCoef: 1})
	prof := fixedProfile(40*sim.Millisecond, 1, 5*sim.Millisecond)
	s, err := server.New(eng, server.Config{App: prof, Seed: 4}, tc)
	if err != nil {
		t.Fatal(err)
	}
	ft := s.EnableFreqTrace(0, sim.Second)
	if _, err := s.Run(workload.Constant(5, sim.Second), sim.Second); err != nil {
		t.Fatal(err)
	}
	turbo := float64(cpu.DefaultLadder().Turbo)
	seenTurbo := false
	for _, row := range ft.Freqs {
		if row[0] == turbo {
			seenTurbo = true
			break
		}
	}
	if !seenTurbo {
		t.Error("controller never engaged turbo past the SLA budget")
	}
}

func TestNameIncludesParams(t *testing.T) {
	tc := NewThreadController(Params{BaseFreq: 0.4, ScalingCoef: 1})
	if tc.Name() == "" {
		t.Error("empty name")
	}
}
