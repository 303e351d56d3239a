// OnlineLinear is parked here, out of the shipped files, by the reachability
// fence (internal/reach, DESIGN.md "What ships"): no program reaches it and
// only its own two tests read it. ROADMAP's reachability item deletes it
// with those tests.
package regress

// OnlineLinear is a streaming variant trained by least-mean-squares updates,
// for policies that refine their predictor as requests complete.
type OnlineLinear struct {
	W  []float64
	B  float64
	LR float64
	n  int
}

// NewOnlineLinear returns a model over d features with learning rate lr.
func NewOnlineLinear(d int, lr float64) *OnlineLinear {
	return &OnlineLinear{W: make([]float64, d), LR: lr}
}

// Predict evaluates the current model.
func (o *OnlineLinear) Predict(x []float64) float64 {
	y := o.B
	for i, xi := range x {
		y += o.W[i] * xi
	}
	return y
}

// Observe performs one LMS update toward target y.
func (o *OnlineLinear) Observe(x []float64, y float64) {
	if len(x) != len(o.W) {
		panic("regress: Observe feature width mismatch")
	}
	err := o.Predict(x) - y
	for i, xi := range x {
		o.W[i] -= o.LR * err * xi
	}
	o.B -= o.LR * err
	o.n++
}

// N reports how many observations have been absorbed.
func (o *OnlineLinear) N() int { return o.n }
