package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || Percentile(nil, 50) != 0 {
		t.Error("empty-input statistics should be zero")
	}
	if CDF(nil, 10) != nil {
		t.Error("CDF of empty input should be nil")
	}
	if s := Summarize(nil); s.N != 0 {
		t.Error("Summarize(nil) should be zero value")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {90, 9.1},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Single element.
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("Percentile of singleton = %v, want 7", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Percentile(101) did not panic")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		last := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRMSE(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{1, 2, 3}
	if got := RMSE(pred, truth); got != 0 {
		t.Errorf("RMSE of identical = %v", got)
	}
	if got := RMSE([]float64{0, 0}, []float64{3, 4}); !almost(got, math.Sqrt(12.5), 1e-9) {
		t.Errorf("RMSE = %v, want sqrt(12.5)", got)
	}
}

func TestRMSEMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RMSE mismatch did not panic")
		}
	}()
	RMSE([]float64{1}, []float64{1, 2})
}

func TestCDF(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	pts := CDF(xs, 4)
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	wantX := []float64{1, 2, 3, 4}
	wantP := []float64{0.25, 0.5, 0.75, 1.0}
	for i := range pts {
		if pts[i].X != wantX[i] || !almost(pts[i].P, wantP[i], 1e-9) {
			t.Errorf("point %d = %+v, want {%v %v}", i, pts[i], wantX[i], wantP[i])
		}
	}
	// Last point always reaches P=1.
	pts = CDF(xs, 3)
	if pts[len(pts)-1].P != 1 {
		t.Error("CDF does not reach 1")
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	s := Summarize(xs)
	if s.N != 100 || s.Min != 1 || s.Max != 100 {
		t.Errorf("bad extremes: %+v", s)
	}
	if !almost(s.Mean, 50.5, 1e-9) {
		t.Errorf("mean = %v", s.Mean)
	}
	if !almost(s.P99, 99.01, 1e-9) {
		t.Errorf("p99 = %v", s.P99)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		if w.N() != len(xs) {
			return false
		}
		if len(xs) == 0 {
			return w.Mean() == 0 && w.Variance() == 0
		}
		scale := 1 + math.Abs(Mean(xs))
		return almost(w.Mean(), Mean(xs), 1e-6*scale) &&
			almost(w.Variance(), Variance(xs), 1e-4*(1+Variance(xs)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be infinities")
	}
}

func BenchmarkPercentile(b *testing.B) {
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64(i * 7919 % 10007)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Percentile(xs, 99)
	}
}
