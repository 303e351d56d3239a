package nn

import (
	"math"
	"testing"

	"github.com/deeppower/deeppower/internal/sim"
)

func TestPaperActorShape(t *testing.T) {
	rng := sim.NewRNG(1)
	a := NewPaperActor(8, rng)
	if a.InDim() != 8 || a.OutDim() != 2 {
		t.Errorf("dims %d→%d", a.InDim(), a.OutDim())
	}
	y := a.Forward(make([]float64, 8))
	if len(y) != 2 {
		t.Fatalf("output len %d", len(y))
	}
	for _, v := range y {
		if v < 0 || v > 1 {
			t.Errorf("sigmoid head output %v outside [0,1]", v)
		}
	}
	// §5.5 quotes ~2096 actor parameters; the shared-trunk topology must
	// land in that neighborhood.
	if n := a.NumParams(); n < 1500 || n > 2700 {
		t.Errorf("two-head actor params = %d, want ~2k (paper: 2096)", n)
	}
}

// Analytic gradients through the shared trunk and both heads must match
// numerical differentiation — including the summed trunk gradient.
func TestTwoHeadGradCheck(t *testing.T) {
	rng := sim.NewRNG(2)
	a := NewTwoHead(4, []int{6, 5}, []int{4}, 2, Sigmoid, rng)
	x := []float64{0.3, -0.7, 1.1, 0.2}
	target := []float64{0.8, 0.2}

	loss := func() float64 {
		y := a.Forward(x)
		g := make([]float64, len(y))
		return MSE(y, target, g)
	}
	a.ZeroGrad()
	y := a.Forward(x)
	g := make([]float64, len(y))
	MSE(y, target, g)
	dIn := a.Backward(g)

	const h = 1e-6
	for li, l := range a.Params() {
		for wi := 0; wi < len(l.W); wi += 3 {
			old := l.W[wi]
			l.W[wi] = old + h
			up := loss()
			l.W[wi] = old - h
			down := loss()
			l.W[wi] = old
			num := (up - down) / (2 * h)
			if math.Abs(num-l.GW[wi]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("param layer %d W[%d]: analytic %v, numerical %v",
					li, wi, l.GW[wi], num)
			}
		}
	}
	// Input gradient.
	for i := range x {
		xp := append([]float64(nil), x...)
		xm := append([]float64(nil), x...)
		xp[i] += h
		xm[i] -= h
		gUp := make([]float64, 2)
		up := MSE(a.Forward(xp), target, gUp)
		down := MSE(a.Forward(xm), target, gUp)
		num := (up - down) / (2 * h)
		if math.Abs(num-dIn[i]) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("input grad %d: analytic %v, numerical %v", i, dIn[i], num)
		}
	}
}

func TestTwoHeadHeadsIndependent(t *testing.T) {
	// Gradients flowing into head 0 must not touch head 1's weights.
	rng := sim.NewRNG(3)
	a := NewTwoHead(3, []int{4}, []int{4}, 2, Sigmoid, rng)
	a.ZeroGrad()
	a.Forward([]float64{0.1, 0.2, 0.3})
	a.Backward([]float64{1, 0})
	for _, l := range a.Heads[1] {
		for _, g := range l.GW {
			if g != 0 {
				t.Fatal("head-1 weights received gradient from head-0 loss")
			}
		}
	}
	// But the shared trunk does receive it.
	trunkGrad := 0.0
	for _, l := range a.Trunk {
		for _, g := range l.GW {
			trunkGrad += math.Abs(g)
		}
	}
	if trunkGrad == 0 {
		t.Error("trunk received no gradient")
	}
}

func TestTwoHeadCloneAndSoftUpdate(t *testing.T) {
	rng := sim.NewRNG(4)
	a := NewPaperActor(8, rng)
	c := a.CloneNet()
	x := make([]float64, 8)
	for i := range x {
		x[i] = 0.3
	}
	want := append([]float64(nil), a.Forward(x)...)
	got := c.Forward(x)
	for i := range want {
		if want[i] != got[i] {
			t.Fatal("clone output differs")
		}
	}
	a.Trunk[0].W[0] += 10
	after := c.Forward(x)
	same := true
	for i := range want {
		if after[i] != want[i] {
			same = false
		}
	}
	if !same {
		t.Error("clone shares storage")
	}
	// Soft updates converge the clone back to a.
	for i := 0; i < 2000; i++ {
		c.SoftUpdateNet(a, 0.05)
	}
	aOut := a.Forward(x)
	cOut := c.Forward(x)
	for i := range aOut {
		if math.Abs(aOut[i]-cOut[i]) > 1e-6 {
			t.Error("soft updates did not converge")
		}
	}
}

func TestTwoHeadBackwardWrongWidthPanics(t *testing.T) {
	a := NewPaperActor(8, sim.NewRNG(7))
	a.Forward(make([]float64, 8))
	defer func() {
		if recover() == nil {
			t.Error("wrong gradient width did not panic")
		}
	}()
	a.Backward([]float64{1})
}

func BenchmarkTwoHeadForward(b *testing.B) {
	a := NewPaperActor(8, sim.NewRNG(1))
	x := make([]float64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Forward(x)
	}
}
