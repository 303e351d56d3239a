package nn

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/deeppower/deeppower/internal/sim"
)

func TestActivations(t *testing.T) {
	cases := []struct {
		a        Activation
		in, want float64
	}{
		{Identity, 3, 3},
		{ReLU, -2, 0},
		{ReLU, 2, 2},
		{Sigmoid, 0, 0.5},
		{Tanh, 0, 0},
	}
	for _, c := range cases {
		if got := c.a.Apply(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%v.Apply(%v) = %v, want %v", c.a, c.in, got, c.want)
		}
	}
	if Sigmoid.Apply(100) <= 0.999 || Sigmoid.Apply(-100) >= 0.001 {
		t.Error("sigmoid saturation wrong")
	}
	for _, a := range []Activation{Identity, ReLU, Sigmoid, Tanh} {
		if a.String() == "" {
			t.Error("empty activation name")
		}
	}
}

func TestActivationDerivFromOutput(t *testing.T) {
	// Check dσ/dx computed from output matches numerical derivative.
	for _, a := range []Activation{Identity, ReLU, Sigmoid, Tanh} {
		for _, x := range []float64{-2, -0.5, 0.3, 1.7} {
			if a == ReLU && x == 0 {
				continue
			}
			h := 1e-6
			num := (a.Apply(x+h) - a.Apply(x-h)) / (2 * h)
			got := a.DerivFromOutput(a.Apply(x))
			if math.Abs(got-num) > 1e-5 {
				t.Errorf("%v deriv at %v = %v, numerical %v", a, x, got, num)
			}
		}
	}
}

func TestDenseForwardShape(t *testing.T) {
	rng := sim.NewRNG(1)
	d := NewDense(3, 2, Identity, rng)
	y := d.Forward([]float64{1, 2, 3})
	if len(y) != 2 {
		t.Fatalf("output len %d", len(y))
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong input size did not panic")
		}
	}()
	d.Forward([]float64{1})
}

func TestDenseLinearExact(t *testing.T) {
	rng := sim.NewRNG(1)
	d := NewDense(2, 1, Identity, rng)
	d.W[0], d.W[1] = 2, -1
	d.B[0] = 0.5
	y := d.Forward([]float64{3, 4})
	if math.Abs(y[0]-(2*3-4+0.5)) > 1e-12 {
		t.Errorf("y = %v", y[0])
	}
}

// Core correctness: analytic gradients must match numerical differentiation
// for every activation, through a multi-layer network.
func TestGradCheck(t *testing.T) {
	for _, act := range []Activation{Identity, Sigmoid, Tanh, ReLU} {
		rng := sim.NewRNG(7)
		m := NewMLP([]int{4, 5, 3}, act, Identity, rng)
		x := []float64{0.3, -0.7, 1.1, 0.2}
		target := []float64{0.5, -0.5, 0.25}

		loss := func() float64 {
			y := m.Forward(x)
			g := make([]float64, len(y))
			return MSE(y, target, g)
		}

		// Analytic gradient.
		m.ZeroGrad()
		y := m.Forward(x)
		g := make([]float64, len(y))
		MSE(y, target, g)
		m.Backward(g)

		const h = 1e-6
		for li, l := range m.Layers {
			for wi := range l.W {
				old := l.W[wi]
				l.W[wi] = old + h
				up := loss()
				l.W[wi] = old - h
				down := loss()
				l.W[wi] = old
				num := (up - down) / (2 * h)
				if math.Abs(num-l.GW[wi]) > 1e-4*(1+math.Abs(num)) {
					t.Fatalf("act %v layer %d W[%d]: analytic %v, numerical %v",
						act, li, wi, l.GW[wi], num)
				}
			}
			for bi := range l.B {
				old := l.B[bi]
				l.B[bi] = old + h
				up := loss()
				l.B[bi] = old - h
				down := loss()
				l.B[bi] = old
				num := (up - down) / (2 * h)
				if math.Abs(num-l.GB[bi]) > 1e-4*(1+math.Abs(num)) {
					t.Fatalf("act %v layer %d B[%d]: analytic %v, numerical %v",
						act, li, bi, l.GB[bi], num)
				}
			}
		}
	}
}

// Input gradients (needed by DDPG's actor update through the critic) must
// also match numerical differentiation.
func TestInputGradCheck(t *testing.T) {
	rng := sim.NewRNG(9)
	m := NewMLP([]int{3, 6, 1}, ReLU, Identity, rng)
	x := []float64{0.4, -0.2, 0.9}
	m.ZeroGrad()
	y := m.Forward(x)
	dIn := m.Backward([]float64{1}) // dL/dy = 1 → dy/dx
	_ = y
	const h = 1e-6
	for i := range x {
		xp := append([]float64(nil), x...)
		xm := append([]float64(nil), x...)
		xp[i] += h
		xm[i] -= h
		up := m.Forward(xp)[0]
		down := m.Forward(xm)[0]
		num := (up - down) / (2 * h)
		if math.Abs(num-dIn[i]) > 1e-5*(1+math.Abs(num)) {
			t.Errorf("input grad %d: analytic %v, numerical %v", i, dIn[i], num)
		}
	}
}

func TestMLPShapes(t *testing.T) {
	rng := sim.NewRNG(1)
	m := NewMLP([]int{8, 32, 24, 16, 2}, ReLU, Sigmoid, rng)
	if m.InDim() != 8 || m.OutDim() != 2 {
		t.Errorf("dims %d→%d", m.InDim(), m.OutDim())
	}
	y := m.Forward(make([]float64, 8))
	for _, v := range y {
		if v < 0 || v > 1 {
			t.Errorf("sigmoid output %v outside [0,1]", v)
		}
	}
	// Paper §5.5: "the number of parameters in the actor neural network is
	// 2096" — the flat 8→32→24→16→2 stack yields 1514; with the two-headed
	// variant the paper describes it lands near 2096. Ours must be in the
	// same small ballpark so overhead conclusions carry.
	if n := m.NumParams(); n < 1000 || n > 3000 {
		t.Errorf("actor-sized MLP has %d params, want ~1.5–2k", n)
	}
}

func TestMLPTrainsXOR(t *testing.T) {
	rng := sim.NewRNG(3)
	m := NewMLP([]int{2, 8, 1}, Tanh, Sigmoid, rng)
	opt := NewAdam(denseLayers(m), 0.02)
	data := [][3]float64{{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}}
	grad := make([]float64, 1)
	for epoch := 0; epoch < 2000; epoch++ {
		for _, d := range data {
			y := m.Forward(d[:2])
			MSE(y, d[2:], grad)
			m.Backward(grad)
		}
		opt.Step()
	}
	for _, d := range data {
		y := m.Forward(d[:2])[0]
		if math.Abs(y-d[2]) > 0.2 {
			t.Fatalf("XOR(%v,%v) = %v, want %v", d[0], d[1], y, d[2])
		}
	}
}

func denseLayers(m *MLP) []*Dense { return m.Layers }

func TestCloneIndependent(t *testing.T) {
	rng := sim.NewRNG(5)
	m := NewMLP([]int{2, 3, 1}, ReLU, Identity, rng)
	c := m.Clone()
	x := []float64{0.5, -0.5}
	want := c.Forward(x)[0]
	m.Layers[0].W[0] += 100
	if got := c.Forward(x)[0]; got != want {
		t.Error("clone shares weight storage with original")
	}
}

func TestSoftUpdate(t *testing.T) {
	rng := sim.NewRNG(7)
	target := NewMLP([]int{1, 1}, Identity, Identity, rng)
	src := NewMLP([]int{1, 1}, Identity, Identity, rng)
	target.Layers[0].W[0] = 0
	src.Layers[0].W[0] = 10
	target.SoftUpdateFrom(src, 0.1)
	if got := target.Layers[0].W[0]; math.Abs(got-1) > 1e-12 {
		t.Errorf("soft update W = %v, want 1", got)
	}
	// τ=1 equals a hard copy.
	target.SoftUpdateFrom(src, 1)
	if got := target.Layers[0].W[0]; math.Abs(got-10) > 1e-12 {
		t.Errorf("τ=1 soft update W = %v, want 10", got)
	}
}

func TestSoftUpdateConverges(t *testing.T) {
	f := func(seed int64) bool {
		rng := sim.NewRNG(seed)
		target := NewMLP([]int{2, 2}, Identity, Identity, rng)
		src := NewMLP([]int{2, 2}, Identity, Identity, rng)
		for i := 0; i < 2000; i++ {
			target.SoftUpdateFrom(src, 0.05)
		}
		for i := range src.Layers[0].W {
			if math.Abs(target.Layers[0].W[i]-src.Layers[0].W[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestMSE(t *testing.T) {
	grad := make([]float64, 2)
	loss := MSE([]float64{1, 2}, []float64{0, 0}, grad)
	if math.Abs(loss-2.5) > 1e-12 { // (1+4)/2
		t.Errorf("MSE = %v", loss)
	}
	if math.Abs(grad[0]-1) > 1e-12 || math.Abs(grad[1]-2) > 1e-12 {
		t.Errorf("grad = %v", grad)
	}
}

func TestAdamGradClip(t *testing.T) {
	rng := sim.NewRNG(9)
	m := NewMLP([]int{1, 1}, Identity, Identity, rng)
	opt := NewAdam(m.Layers, 0.1)
	opt.MaxGradNorm = 1.0
	m.Layers[0].GW[0] = 100
	m.Layers[0].GB[0] = 0
	w0 := m.Layers[0].W[0]
	opt.Step()
	// With clipping, step magnitude ≈ lr (Adam normalizes), never huge.
	if d := math.Abs(m.Layers[0].W[0] - w0); d > 0.2 {
		t.Errorf("clipped step moved weight by %v", d)
	}
}

func TestGradientAccumulation(t *testing.T) {
	rng := sim.NewRNG(10)
	d := NewDense(1, 1, Identity, rng)
	d.Forward([]float64{2})
	d.Backward([]float64{1})
	d.Forward([]float64{2})
	d.Backward([]float64{1})
	if math.Abs(d.GW[0]-4) > 1e-12 { // two accumulations of x·δ = 2
		t.Errorf("accumulated GW = %v, want 4", d.GW[0])
	}
	d.ZeroGrad()
	if d.GW[0] != 0 || d.GB[0] != 0 {
		t.Error("ZeroGrad failed")
	}
}

func BenchmarkForwardActorSized(b *testing.B) {
	rng := sim.NewRNG(1)
	m := NewMLP([]int{8, 32, 24, 16, 2}, ReLU, Sigmoid, rng)
	x := make([]float64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}

func BenchmarkBackwardActorSized(b *testing.B) {
	rng := sim.NewRNG(1)
	m := NewMLP([]int{8, 32, 24, 16, 2}, ReLU, Sigmoid, rng)
	x := make([]float64, 8)
	g := []float64{1, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
		m.Backward(g)
	}
}
