package regress

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/deeppower/deeppower/internal/sim"
)

func TestFitExactLinear(t *testing.T) {
	// y = 2x1 - 3x2 + 5, noiseless.
	rng := sim.NewRNG(1)
	var X [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10}
		X = append(X, x)
		y = append(y, 2*x[0]-3*x[1]+5)
	}
	m, err := Fit(X, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.W[0]-2) > 1e-6 || math.Abs(m.W[1]+3) > 1e-6 || math.Abs(m.B-5) > 1e-6 {
		t.Errorf("fit = W %v B %v, want [2 -3] 5", m.W, m.B)
	}
	if got := m.Predict([]float64{1, 1}); math.Abs(got-4) > 1e-6 {
		t.Errorf("Predict = %v, want 4", got)
	}
}

func TestFitNoisyRecovery(t *testing.T) {
	rng := sim.NewRNG(2)
	var X [][]float64
	var y []float64
	for i := 0; i < 5000; i++ {
		x := []float64{rng.Float64() * 4}
		X = append(X, x)
		y = append(y, 7*x[0]+1+rng.Normal(0, 0.5))
	}
	m, err := Fit(X, y, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.W[0]-7) > 0.1 || math.Abs(m.B-1) > 0.2 {
		t.Errorf("noisy fit W=%v B=%v, want ~7, ~1", m.W, m.B)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, 0); err == nil {
		t.Error("empty fit accepted")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, 0); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Fit([][]float64{{}}, []float64{1}, 0); err == nil {
		t.Error("zero-width rows accepted")
	}
	if _, err := Fit([][]float64{{1}, {1, 2}}, []float64{1, 2}, 0); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1}, -1); err == nil {
		t.Error("negative lambda accepted")
	}
}

func TestFitSingularNeedsRidge(t *testing.T) {
	// Perfectly collinear features: x2 = 2·x1.
	var X [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		v := float64(i)
		X = append(X, []float64{v, 2 * v})
		y = append(y, 3*v)
	}
	if _, err := Fit(X, y, 0); err == nil {
		t.Error("singular fit without ridge accepted")
	}
	m, err := Fit(X, y, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	// Ridge solution still predicts well.
	if got := m.Predict([]float64{10, 20}); math.Abs(got-30) > 0.5 {
		t.Errorf("ridge prediction = %v, want ~30", got)
	}
}

func TestPredictPanicsOnWidth(t *testing.T) {
	m := &Linear{W: []float64{1, 2}}
	defer func() {
		if recover() == nil {
			t.Error("width mismatch did not panic")
		}
	}()
	m.Predict([]float64{1})
}

func TestPredictAll(t *testing.T) {
	m := &Linear{W: []float64{2}, B: 1}
	got := m.PredictAll([][]float64{{0}, {1}, {2}})
	want := []float64{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("PredictAll[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// Fitting then predicting the training set must have lower squared error
// than predicting its mean (the regression inequality).
func TestFitBeatsMean(t *testing.T) {
	f := func(seed int64) bool {
		rng := sim.NewRNG(seed)
		var X [][]float64
		var y []float64
		mean := 0.0
		for i := 0; i < 100; i++ {
			x := []float64{rng.Float64()}
			t := 3*x[0] + rng.Normal(0, 1)
			X = append(X, x)
			y = append(y, t)
			mean += t / 100
		}
		m, err := Fit(X, y, 1e-9)
		if err != nil {
			return false
		}
		var seFit, seMean float64
		for i := range X {
			d1 := m.Predict(X[i]) - y[i]
			d2 := mean - y[i]
			seFit += d1 * d1
			seMean += d2 * d2
		}
		return seFit <= seMean+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFit1000x3(b *testing.B) {
	rng := sim.NewRNG(1)
	var X [][]float64
	var y []float64
	for i := 0; i < 1000; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		X = append(X, x)
		y = append(y, x[0]+x[1]+x[2])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(X, y, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}
