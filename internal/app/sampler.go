package app

import "github.com/deeppower/deeppower/internal/sim"

// TailedSampler is the request population generator shared by all profiles.
//
// A request draws three observable features:
//
//	x1 ~ LogNormal(0, Sigma1)   — "input size" (query terms, sentence length…)
//	x2 ~ Uniform[0, 1)          — secondary input property
//	x3 ~ categorical type       — request class (e.g. GET vs PUT)
//
// and its uncontended reference service time is
//
//	S = (BaseUS + CoefUS·x1·(1 + Inter·x2)) · typeMul(x3) · noise  [+ tail]
//
// where noise is LogNormal(0, NoiseSigma) and, with probability TailProb, a
// Pareto(TailScaleUS, TailAlpha) spike is added. The observable features
// explain most of the variance (so per-request predictors can work at a
// fixed load, as ReTail reports), while the interaction term, noise, and
// spikes leave the irreducible long tail seen in Fig. 1.
type TailedSampler struct {
	BaseUS     float64   // constant service component, µs
	CoefUS     float64   // µs of service per unit x1
	Sigma1     float64   // log-σ of x1
	Inter      float64   // strength of the x1·x2 interaction
	TypeMuls   []float64 // service multiplier per request type
	TypeProbs  []float64 // probability of each type (sums to 1)
	NoiseSigma float64   // log-σ of multiplicative noise
	TailProb   float64   // probability of a Pareto spike
	TailScale  float64   // Pareto scale, µs
	TailAlpha  float64   // Pareto shape
}

// FeatureDim implements Sampler. Features are [x1, x2, type].
func (s *TailedSampler) FeatureDim() int { return 3 }

// Sample implements Sampler.
func (s *TailedSampler) Sample(r *sim.RNG) Work {
	var w Work
	s.SampleInto(r, &w)
	return w
}

// SampleInto implements IntoSampler: identical draws to Sample, but the
// sampled work overwrites w, reusing its Features storage when the backing
// array is large enough.
func (s *TailedSampler) SampleInto(r *sim.RNG, w *Work) {
	x1 := r.LogNormal(0, s.Sigma1)
	x2 := r.Float64()
	typ := s.sampleType(r)

	us := (s.BaseUS + s.CoefUS*x1*(1+s.Inter*x2)) * s.typeMul(typ)
	if s.NoiseSigma > 0 {
		us *= r.LogNormal(0, s.NoiseSigma)
	}
	if s.TailProb > 0 && r.Bernoulli(s.TailProb) {
		us += r.Pareto(s.TailScale, s.TailAlpha)
	}
	w.ServiceRef = sim.Micros(us)
	w.Features = append(w.Features[:0], x1, x2, float64(typ))
}

func (s *TailedSampler) sampleType(r *sim.RNG) int {
	if len(s.TypeProbs) == 0 {
		return 0
	}
	u := r.Float64()
	acc := 0.0
	for i, p := range s.TypeProbs {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(s.TypeProbs) - 1
}

func (s *TailedSampler) typeMul(typ int) float64 {
	if typ < len(s.TypeMuls) {
		return s.TypeMuls[typ]
	}
	return 1
}
