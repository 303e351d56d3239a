package nn

import "math"

// Adam implements the Adam optimizer (Kingma & Ba 2015), the optimizer the
// paper's PyTorch implementation uses for both actor and critic.
type Adam struct {
	layers []*Dense
	lr     float64
	beta1  float64
	beta2  float64
	eps    float64
	t      int
	mw, vw [][]float64 // first/second moments for W, per layer
	mb, vb [][]float64 // first/second moments for B, per layer
	// MaxGradNorm, when positive, clips the global gradient norm before
	// each step, stabilizing early critic training.
	MaxGradNorm float64
}

// NewAdam returns an Adam optimizer over layers with learning rate lr and
// standard moment decay (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(layers []*Dense, lr float64) *Adam {
	a := &Adam{
		layers: layers, lr: lr,
		beta1: 0.9, beta2: 0.999, eps: 1e-8,
	}
	for _, l := range layers {
		a.mw = append(a.mw, make([]float64, len(l.W)))
		a.vw = append(a.vw, make([]float64, len(l.W)))
		a.mb = append(a.mb, make([]float64, len(l.B)))
		a.vb = append(a.vb, make([]float64, len(l.B)))
	}
	return a
}

// Step applies one update from the accumulated gradients and clears them.
func (a *Adam) Step() {
	if a.MaxGradNorm > 0 {
		a.clip()
	}
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	for li, l := range a.layers {
		a.apply(l.W, l.GW, a.mw[li], a.vw[li], c1, c2)
		a.apply(l.B, l.GB, a.mb[li], a.vb[li], c1, c2)
		l.ZeroGrad()
	}
}

// apply is one Adam step over one parameter slice. A vector kernel runs it
// where one exists, lane by lane in the order of the loop below.
func (a *Adam) apply(w, g, m, v []float64, c1, c2 float64) {
	k := [8]float64{a.beta1, 1 - a.beta1, a.beta2, 1 - a.beta2, c1, c2, a.lr, a.eps}
	if adamVector(w, g, m, v, &k) {
		return
	}
	for i := range w {
		m[i] = a.beta1*m[i] + (1-a.beta1)*g[i]
		v[i] = a.beta2*v[i] + (1-a.beta2)*g[i]*g[i]
		mh := m[i] / c1
		vh := v[i] / c2
		w[i] -= a.lr * mh / (math.Sqrt(vh) + a.eps)
	}
}

func (a *Adam) clip() {
	var norm2 float64
	for _, l := range a.layers {
		for _, g := range l.GW {
			norm2 += g * g
		}
		for _, g := range l.GB {
			norm2 += g * g
		}
	}
	norm := math.Sqrt(norm2)
	if norm <= a.MaxGradNorm {
		return
	}
	scale := a.MaxGradNorm / norm
	for _, l := range a.layers {
		for i := range l.GW {
			l.GW[i] *= scale
		}
		for i := range l.GB {
			l.GB[i] *= scale
		}
	}
}
