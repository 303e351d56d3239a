// Package workload generates the request arrival processes the paper drives
// its evaluation with: static Poisson loads (Table 3, Fig. 2) and a dynamic
// diurnal trace modeled on the Alibaba e-commerce search benchmark (Fig. 6),
// downsampled to a short period as described in §5.2.
package workload

import (
	"fmt"
	"math"

	"github.com/deeppower/deeppower/internal/sim"
)

// Trace is a piecewise-constant request-rate function over one period.
// Rates repeat with the trace's period, so a trace can drive arbitrarily
// long simulations (the paper trains on "a long running workload" and tests
// on a short one from the same process).
type Trace struct {
	// Period is the total duration covered by Rates.
	Period sim.Time
	// Rates holds requests/second for each of len(Rates) equal buckets.
	Rates []float64
}

// Validate reports an error for malformed traces.
func (tr *Trace) Validate() error {
	if tr.Period <= 0 {
		return fmt.Errorf("workload: non-positive period %v", tr.Period)
	}
	if len(tr.Rates) == 0 {
		return fmt.Errorf("workload: empty trace")
	}
	for i, r := range tr.Rates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("workload: bad rate %v at bucket %d", r, i)
		}
	}
	return nil
}

// BucketWidth returns the duration of one rate bucket.
func (tr *Trace) BucketWidth() sim.Time {
	return tr.Period / sim.Time(len(tr.Rates))
}

// RateAt returns the arrival rate at virtual time t (periodic extension).
func (tr *Trace) RateAt(t sim.Time) float64 {
	if t < 0 {
		t = -t
	}
	phase := t % tr.Period
	idx := int(int64(phase) * int64(len(tr.Rates)) / int64(tr.Period))
	if idx >= len(tr.Rates) {
		idx = len(tr.Rates) - 1
	}
	return tr.Rates[idx]
}

// MaxRate returns the peak rate of the trace.
func (tr *Trace) MaxRate() float64 {
	m := 0.0
	for _, r := range tr.Rates {
		if r > m {
			m = r
		}
	}
	return m
}

// MeanRate returns the time-average rate of the trace.
func (tr *Trace) MeanRate() float64 {
	sum := 0.0
	for _, r := range tr.Rates {
		sum += r
	}
	return sum / float64(len(tr.Rates))
}

// Scale returns a copy of the trace with every rate multiplied by k. The
// paper "multiplies the RPS by a factor to make the tail latency close to
// SLA when running without frequency scaling" (§5.2); use ScaleToPeak for
// that calibration.
func (tr *Trace) Scale(k float64) *Trace {
	out := &Trace{Period: tr.Period, Rates: make([]float64, len(tr.Rates))}
	for i, r := range tr.Rates {
		out.Rates[i] = r * k
	}
	return out
}

// ScaleToPeak returns a copy scaled so the trace's maximum rate equals peak.
func (tr *Trace) ScaleToPeak(peak float64) *Trace {
	m := tr.MaxRate()
	if m == 0 {
		return tr.Scale(0)
	}
	return tr.Scale(peak / m)
}

// Constant returns a single-bucket trace with a fixed rate, for static-load
// experiments (Table 3, Fig. 2).
func Constant(rate float64, period sim.Time) *Trace {
	return &Trace{Period: period, Rates: []float64{rate}}
}

// DiurnalConfig parameterizes the synthetic e-commerce trace generator.
type DiurnalConfig struct {
	// Period is the length of one "day" after downsampling (360 s default,
	// per §5.2).
	Period sim.Time
	// Buckets is the time resolution of the trace.
	Buckets int
	// BaseRPS is the trough request rate.
	BaseRPS float64
	// PeakRPS is the crest request rate (>= BaseRPS).
	PeakRPS float64
	// BurstProb is the per-bucket probability of a flash-crowd burst.
	BurstProb float64
	// BurstMul multiplies the rate during a burst.
	BurstMul float64
	// NoiseFrac is the relative std-dev of multiplicative bucket noise.
	NoiseFrac float64
	// Seed drives the generator.
	Seed int64
}

// DefaultDiurnal returns the configuration used across the evaluation:
// a 360 s period with a pronounced day/night swing (the Fig. 6 trace swings
// roughly 3–4× between trough and crest) and occasional bursts.
func DefaultDiurnal() DiurnalConfig {
	return DiurnalConfig{
		Period:    360 * sim.Second,
		Buckets:   360,
		BaseRPS:   100,
		PeakRPS:   400,
		BurstProb: 0.02,
		BurstMul:  1.25,
		NoiseFrac: 0.05,
		Seed:      1,
	}
}

// Diurnal synthesizes a trace with the diurnal shape of the e-commerce
// search benchmark: a dominant daily harmonic, a weaker half-day harmonic
// (the real trace's lunchtime/evening double peak), multiplicative noise,
// and occasional flash-crowd bursts.
func Diurnal(cfg DiurnalConfig) *Trace {
	if cfg.Buckets <= 0 || cfg.Period <= 0 {
		panic("workload: Diurnal needs positive Buckets and Period")
	}
	if cfg.PeakRPS < cfg.BaseRPS {
		panic("workload: PeakRPS below BaseRPS")
	}
	r := sim.NewRNG(sim.SubSeed(cfg.Seed, "diurnal"))
	rates := make([]float64, cfg.Buckets)
	amp := (cfg.PeakRPS - cfg.BaseRPS) / 2
	mid := (cfg.PeakRPS + cfg.BaseRPS) / 2
	for i := range rates {
		phase := 2 * math.Pi * float64(i) / float64(cfg.Buckets)
		// Main daily swing with trough at phase 0, plus a second harmonic
		// producing the characteristic double hump.
		v := mid - amp*math.Cos(phase) + 0.25*amp*math.Sin(2*phase+0.7)
		if cfg.NoiseFrac > 0 {
			v *= 1 + r.Normal(0, cfg.NoiseFrac)
		}
		if cfg.BurstProb > 0 && r.Bernoulli(cfg.BurstProb) {
			v *= cfg.BurstMul
		}
		if v < 0 {
			v = 0
		}
		rates[i] = v
	}
	return &Trace{Period: cfg.Period, Rates: rates}
}

// Step returns a two-level square-wave trace alternating between lo and hi
// every half period — the abrupt load shift that stresses workload-adaptive
// policies harder than smooth diurnal curves.
func Step(lo, hi float64, period sim.Time, buckets int) *Trace {
	if buckets < 2 {
		buckets = 2
	}
	rates := make([]float64, buckets)
	for i := range rates {
		if i < buckets/2 {
			rates[i] = lo
		} else {
			rates[i] = hi
		}
	}
	return &Trace{Period: period, Rates: rates}
}

// Spike returns a mostly-flat trace at base with a short burst to peak —
// the flash-crowd scenario.
func Spike(base, peak float64, period sim.Time, buckets int, burstFrac float64) *Trace {
	if buckets < 4 {
		buckets = 4
	}
	if burstFrac <= 0 || burstFrac >= 1 {
		burstFrac = 0.1
	}
	rates := make([]float64, buckets)
	burstStart := buckets / 2
	burstLen := int(float64(buckets) * burstFrac)
	if burstLen < 1 {
		burstLen = 1
	}
	for i := range rates {
		if i >= burstStart && i < burstStart+burstLen {
			rates[i] = peak
		} else {
			rates[i] = base
		}
	}
	return &Trace{Period: period, Rates: rates}
}

// Arrivals generates request arrival times from a trace as a
// non-homogeneous Poisson process (thinning algorithm). It is an iterator:
// Next returns successive arrival instants.
type Arrivals struct {
	trace *Trace
	rng   *sim.RNG
	now   sim.Time
	peak  float64
}

// NewArrivals returns a generator starting at time 0.
func NewArrivals(trace *Trace, rng *sim.RNG) *Arrivals {
	if err := trace.Validate(); err != nil {
		panic(err)
	}
	return &Arrivals{trace: trace, rng: rng, peak: trace.MaxRate()}
}

// Next returns the next arrival time, strictly after the previous one.
// If the trace rate is zero everywhere it returns sim.MaxTime.
func (a *Arrivals) Next() sim.Time {
	if a.peak <= 0 {
		return sim.MaxTime
	}
	for {
		a.now += sim.Seconds(a.rng.Exp(a.peak))
		if a.rng.Float64()*a.peak <= a.trace.RateAt(a.now) {
			return a.now
		}
	}
}
