package rl

import (
	"math"

	"github.com/deeppower/deeppower/internal/sim"
)

// Noise is an exploration-noise process added to the actor's action.
type Noise interface {
	// Sample returns a noise vector of the given dimension.
	Sample(dim int) []float64
	// SampleInto fills dst with one draw of dimension len(dst) without
	// allocating. It consumes the process's RNG in exactly the same order
	// as Sample, so the two are interchangeable under a fixed seed — the
	// property the vectorized act path relies on to stay bit-identical to
	// the inline one.
	SampleInto(dst []float64)
}

// GaussianNoise is i.i.d. N(Mu, Sigma²) noise. The paper uses N(0.3, 1) by
// default (§4.6): the positive mean biases early exploration toward higher
// frequencies so the queue does not congest while the policy is random.
type GaussianNoise struct {
	Mu, Sigma float64
	rng       *sim.RNG
}

// NewGaussianNoise returns a Gaussian noise source.
func NewGaussianNoise(mu, sigma float64, rng *sim.RNG) *GaussianNoise {
	return &GaussianNoise{Mu: mu, Sigma: sigma, rng: rng}
}

// Sample implements Noise.
func (g *GaussianNoise) Sample(dim int) []float64 {
	out := make([]float64, dim)
	g.SampleInto(out)
	return out
}

// SampleInto implements Noise.
func (g *GaussianNoise) SampleInto(dst []float64) {
	for i := range dst {
		dst[i] = g.rng.Normal(g.Mu, g.Sigma)
	}
}

// DecayedNoise wraps another process, scaling its samples by a factor that
// decays geometrically per draw — a common trick to anneal exploration as
// training progresses.
type DecayedNoise struct {
	Inner Noise
	Scale float64
	Decay float64 // per-sample multiplicative decay, e.g. 0.999
	Floor float64
}

// Sample implements Noise.
func (d *DecayedNoise) Sample(dim int) []float64 {
	out := make([]float64, dim)
	d.SampleInto(out)
	return out
}

// SampleInto implements Noise.
func (d *DecayedNoise) SampleInto(dst []float64) {
	d.Inner.SampleInto(dst)
	for i := range dst {
		dst[i] *= d.Scale
	}
	d.Scale *= d.Decay
	if d.Scale < d.Floor {
		d.Scale = d.Floor
	}
}

// Clip01 clamps every element of a into [0,1] in place, NaN to 0, and
// returns a — the actor's action range (BaseFreq, ScalingCoef are
// sigmoid-bounded, §4.4.3).
func Clip01(a []float64) []float64 {
	for i, v := range a {
		if v < 0 {
			a[i] = 0
		} else if v > 1 {
			a[i] = 1
		} else if math.IsNaN(v) {
			a[i] = 0
		}
	}
	return a
}
