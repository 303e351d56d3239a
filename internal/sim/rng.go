package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG is a seedable random source with the distribution samplers the
// simulator needs. Independent named substreams can be derived with Stream,
// so that, e.g., arrival randomness and service-time randomness do not
// perturb each other when one component changes how many draws it makes.
type RNG struct {
	*rand.Rand
	seed int64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{Rand: rand.New(rand.NewSource(seed)), seed: seed}
}

// Stream derives an independent generator keyed by name. Streams derived
// from the same (seed, name) pair are identical across runs.
func (r *RNG) Stream(name string) *RNG {
	return NewRNG(SubSeed(r.seed, name))
}

// SubSeed derives a deterministic child seed from (seed, name). It is the
// seed arithmetic behind Stream, exposed so that parallel experiment work
// units can each construct their own private RNG from a named substream of
// the experiment seed without sharing any generator state:
//
//	rng := sim.NewRNG(sim.SubSeed(scale.Seed, "fig7/xapian/retail"))
//
// Identical (seed, name) pairs yield identical substreams on every run and
// platform, which is what makes a parallel grid byte-identical to a serial
// one.
func SubSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return int64(h.Sum64() ^ (uint64(seed) * 0x9E3779B97F4A7C15))
}

// Exp samples an exponential with the given rate (events per unit).
// The mean of the distribution is 1/rate.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("sim: Exp with non-positive rate")
	}
	return r.ExpFloat64() / rate
}

// LogNormal samples exp(N(mu, sigma^2)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Pareto samples a Pareto distribution with scale xm > 0 and shape alpha > 0.
// P(X > x) = (xm/x)^alpha for x >= xm.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("sim: Pareto with non-positive parameter")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Normal samples N(mu, sigma^2).
func (r *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*r.NormFloat64()
}

// Uniform samples uniformly from [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}
