// Observers and oracles only this package's tests read: the reachability
// fence (internal/reach, DESIGN.md "What ships") keeps them out of the
// shipped files.
package stats

// N reports how many observations were added.
func (q *P2Quantile) N() int { return q.count }

// Summarize computes a Summary of xs without touching xs: SummarizeInPlace
// over a private copy.
func Summarize(xs []float64) Summary {
	return SummarizeInPlace(append([]float64(nil), xs...))
}
