package stats

import (
	"fmt"
	"sort"
)

// P2Quantile is the P² (P-square) streaming quantile estimator of Jain &
// Chlamtac (1985): it tracks a single quantile in O(1) memory, letting
// multi-million-request runs monitor tail latency without retaining samples.
type P2Quantile struct {
	p       float64
	q       [5]float64 // marker heights
	n       [5]int     // marker positions
	np      [5]float64 // desired positions
	dn      [5]float64 // position increments
	count   int
	initial []float64
}

// NewP2Quantile tracks the p-quantile, p in (0, 1) — e.g. 0.99 for p99.
func NewP2Quantile(p float64) *P2Quantile {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: P2 quantile %v outside (0,1)", p))
	}
	return &P2Quantile{p: p}
}

// Add incorporates one observation.
func (q *P2Quantile) Add(x float64) {
	q.count++
	if q.count <= 5 {
		q.initial = append(q.initial, x)
		if q.count == 5 {
			sort.Float64s(q.initial)
			for i := 0; i < 5; i++ {
				q.q[i] = q.initial[i]
				q.n[i] = i + 1
			}
			p := q.p
			q.np = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
			q.dn = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
		}
		return
	}

	// Find the cell containing x and adjust extremes.
	var k int
	switch {
	case x < q.q[0]:
		q.q[0] = x
		k = 0
	case x >= q.q[4]:
		q.q[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < q.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		q.n[i]++
	}
	for i := 0; i < 5; i++ {
		q.np[i] += q.dn[i]
	}

	// Adjust interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := q.np[i] - float64(q.n[i])
		if (d >= 1 && q.n[i+1]-q.n[i] > 1) || (d <= -1 && q.n[i-1]-q.n[i] < -1) {
			sign := 1
			if d < 0 {
				sign = -1
			}
			// Piecewise-parabolic prediction.
			qn := q.parabolic(i, sign)
			if q.q[i-1] < qn && qn < q.q[i+1] {
				q.q[i] = qn
			} else {
				q.q[i] = q.linear(i, sign)
			}
			q.n[i] += sign
		}
	}
}

func (q *P2Quantile) parabolic(i, sign int) float64 {
	d := float64(sign)
	ni := float64(q.n[i])
	nm := float64(q.n[i-1])
	np := float64(q.n[i+1])
	return q.q[i] + d/(np-nm)*((ni-nm+d)*(q.q[i+1]-q.q[i])/(np-ni)+
		(np-ni-d)*(q.q[i]-q.q[i-1])/(ni-nm))
}

func (q *P2Quantile) linear(i, sign int) float64 {
	d := float64(sign)
	return q.q[i] + d*(q.q[i+sign]-q.q[i])/(float64(q.n[i+sign])-float64(q.n[i]))
}

// Value returns the current quantile estimate. With fewer than five
// observations it falls back to the exact small-sample quantile.
func (q *P2Quantile) Value() float64 {
	if q.count == 0 {
		return 0
	}
	if q.count < 5 {
		cp := append([]float64(nil), q.initial...)
		sort.Float64s(cp)
		return percentileSorted(cp, q.p*100)
	}
	return q.q[2]
}
