// Observers and oracles only this package's tests read: the reachability
// fence (internal/reach, DESIGN.md "What ships") keeps them out of the
// shipped files.
package app

import (
	"fmt"
	"sort"

	"github.com/deeppower/deeppower/internal/sim"
)

// Validate reports an error for malformed samplers.
func (s *TailedSampler) Validate() error {
	switch {
	case s.BaseUS < 0 || s.CoefUS < 0:
		return fmt.Errorf("app: negative service coefficients")
	case s.Sigma1 < 0 || s.NoiseSigma < 0:
		return fmt.Errorf("app: negative sigma")
	case s.TailProb < 0 || s.TailProb > 1:
		return fmt.Errorf("app: TailProb outside [0,1]")
	case s.TailProb > 0 && (s.TailScale <= 0 || s.TailAlpha <= 0):
		return fmt.Errorf("app: tail enabled with invalid Pareto parameters")
	case len(s.TypeMuls) != len(s.TypeProbs):
		return fmt.Errorf("app: TypeMuls/TypeProbs length mismatch")
	}
	return nil
}

// ServiceQuantiles samples n requests and returns the requested quantiles of
// ServiceRef in milliseconds (helper for calibration and Fig. 1).
//
// Parked, not an observer: only its own tests read it. ROADMAP's
// reachability item deletes it with those tests.
func (p *Profile) ServiceQuantiles(seed int64, n int, qs ...float64) []float64 {
	r := sim.NewRNG(seed).Stream("quantiles-" + p.Name)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = p.Sampler.Sample(r).ServiceRef.Milliseconds()
	}
	sort.Float64s(xs)
	out := make([]float64, len(qs))
	for i, q := range qs {
		idx := int(q * float64(n-1))
		out[i] = xs[idx]
	}
	return out
}
