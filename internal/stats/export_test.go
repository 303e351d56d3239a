// Observers and oracles only this package's tests read: the reachability
// fence (internal/reach, DESIGN.md "What ships") keeps them out of the
// shipped files.
package stats

// Histogram bins xs into n equal-width buckets over [lo, hi] and returns the
// counts. Values outside the range are clamped into the edge buckets.
//
// Parked, not an observer: only its own tests read it. ROADMAP's
// reachability item deletes it with those tests.
func Histogram(xs []float64, lo, hi float64, n int) []int {
	if n <= 0 || hi <= lo {
		return nil
	}
	counts := make([]int, n)
	w := (hi - lo) / float64(n)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= n {
			b = n - 1
		}
		counts[b]++
	}
	return counts
}

// N reports how many observations were added.
func (q *P2Quantile) N() int { return q.count }
