// Package app models the five Tailbench latency-critical applications the
// paper evaluates (Xapian, Masstree, Moses, Sphinx, Img-dnn).
//
// The real Tailbench binaries enter the paper's evaluation only through
// (i) their request service-time distributions (long-tailed, Fig. 1),
// (ii) their SLAs and measured 99th-percentile latency at different loads
// (Table 3), (iii) how service time responds to CPU frequency, and (iv) the
// per-request features the ReTail/Gemini predictors consume. Profiles here
// encode exactly those four things, calibrated against the paper's Table 3.
package app

import (
	"fmt"

	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/sim"
)

// Work describes one request's computational demand and its observable
// features, as sampled from an application's request population.
type Work struct {
	// ServiceRef is the uncontended service time at the profile's reference
	// frequency. The server converts it into cycles.
	ServiceRef sim.Time
	// Features is the observable request feature vector (e.g. query terms,
	// sentence length) that service-time predictors may use. It does NOT
	// determine ServiceRef exactly: profiles include irreducible noise and a
	// heavy tail, as real applications do.
	Features []float64
}

// Sampler draws request Work from an application's population.
type Sampler interface {
	Sample(r *sim.RNG) Work
	// FeatureDim reports the length of Work.Features.
	FeatureDim() int
}

// IntoSampler is an optional Sampler extension for allocation-free request
// generation: SampleInto overwrites w in place, reusing w.Features' backing
// storage. It must consume the RNG exactly as Sample does, so the two forms
// are interchangeable without perturbing seeded runs. The server uses it to
// pool Request objects without allocating a feature vector per arrival.
type IntoSampler interface {
	Sampler
	SampleInto(r *sim.RNG, w *Work)
}

// Profile is one latency-critical application.
type Profile struct {
	// Name is the Tailbench application name.
	Name string
	// SLA is the tail-latency requirement (Table 3).
	SLA sim.Time
	// Workers is the number of worker threads, each pinned to one core
	// (20 in the paper; 8 for Masstree due to its memory overhead).
	Workers int
	// RefFreq is the frequency ServiceRef is defined at (the 2.1 GHz
	// non-turbo maximum of the testbed CPU).
	RefFreq cpu.Freq
	// MemFrac is the fraction of service time that does not scale with
	// frequency (memory/IO-bound work). 0 = perfectly frequency-scalable.
	MemFrac float64
	// ContentionCoef inflates service time with worker utilization:
	// actual = sampled · (1 + ContentionCoef·ρ) where ρ is the fraction of
	// other workers busy at dispatch. This models the shared cache/memory
	// contention §3.1 identifies as what breaks static predictors.
	ContentionCoef float64
	// Sampler draws request work.
	Sampler Sampler
	// DAG, when non-nil, makes every arrival a stage graph instead of a
	// single request: stages carry their own samplers and enter the queue
	// only when their predecessors complete, and the SLA applies to the
	// job's end-to-end latency. Sampler may be nil when DAG is set.
	DAG *DAG
}

// Validate reports an error for malformed profiles.
func (p *Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("app: profile missing name")
	case p.SLA <= 0:
		return fmt.Errorf("app %s: non-positive SLA", p.Name)
	case p.Workers <= 0:
		return fmt.Errorf("app %s: non-positive worker count", p.Name)
	case p.RefFreq <= 0:
		return fmt.Errorf("app %s: non-positive reference frequency", p.Name)
	case p.MemFrac < 0 || p.MemFrac >= 1:
		return fmt.Errorf("app %s: MemFrac %v outside [0,1)", p.Name, p.MemFrac)
	case p.ContentionCoef < 0:
		return fmt.Errorf("app %s: negative ContentionCoef", p.Name)
	case p.Sampler == nil && p.DAG == nil:
		return fmt.Errorf("app %s: nil sampler", p.Name)
	}
	if p.DAG != nil {
		if err := p.DAG.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// ServiceAt converts an uncontended reference service time into wall time at
// frequency f: the memory-bound fraction is invariant, the CPU-bound
// remainder scales as RefFreq/f.
func (p *Profile) ServiceAt(ref sim.Time, f cpu.Freq) sim.Time {
	if f <= 0 {
		return sim.MaxTime
	}
	mem := float64(ref) * p.MemFrac
	cpuPart := float64(ref) * (1 - p.MemFrac) * float64(p.RefFreq) / float64(f)
	return sim.Time(mem + cpuPart)
}

// SpeedAt returns the rate (reference-service seconds retired per wall
// second) a worker progresses at frequency f. ServiceAt(ref,f) == ref/SpeedAt(f).
func (p *Profile) SpeedAt(f cpu.Freq) float64 {
	if f <= 0 {
		return 0
	}
	return 1 / (p.MemFrac + (1-p.MemFrac)*float64(p.RefFreq)/float64(f))
}

// MeanService estimates the population mean of ServiceRef by sampling. For
// DAG profiles without a flat sampler it is the mean total work of one job
// (summed over stages). It is deterministic for a given seed.
func (p *Profile) MeanService(seed int64, n int) sim.Time {
	if p.Sampler == nil && p.DAG != nil {
		return p.DAG.MeanTotalService(seed, n)
	}
	r := sim.NewRNG(sim.SubSeed(seed, "mean-service-"+p.Name))
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(p.Sampler.Sample(r).ServiceRef)
	}
	return sim.Time(sum / float64(n))
}

// MaxCapacity returns the highest sustainable request rate (requests/second)
// with all workers at frequency f and no contention: Workers / meanService(f).
func (p *Profile) MaxCapacity(f cpu.Freq, seed int64) float64 {
	mean := p.MeanService(seed, 20000)
	at := p.ServiceAt(mean, f)
	return float64(p.Workers) / at.Seconds()
}
