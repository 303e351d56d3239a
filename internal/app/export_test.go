// Observers and oracles only this package's tests read: the reachability
// fence (internal/reach, DESIGN.md "What ships") keeps them out of the
// shipped files.
package app

import "fmt"

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
