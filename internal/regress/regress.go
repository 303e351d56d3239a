// Package regress implements the linear-regression service-time predictor
// that ReTail (HPCA'22) uses and that the paper's §3.1 motivation experiment
// (Fig. 2) retrains at different load levels.
package regress

import (
	"fmt"
	"math"
)

// Linear is a least-squares linear model y = w·x + b, fit by solving the
// ridge-regularized normal equations.
type Linear struct {
	// W holds the feature weights; B is the intercept.
	W []float64
	B float64
	// Lambda is the ridge regularization strength used at fit time.
	Lambda float64
}

// Fit trains on rows X (n×d) and targets y (n). A small ridge term keeps the
// normal equations well-posed under collinear features.
func Fit(X [][]float64, y []float64, lambda float64) (*Linear, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("regress: need matching non-empty X (%d) and y (%d)", n, len(y))
	}
	d := len(X[0])
	if d == 0 {
		return nil, fmt.Errorf("regress: zero-width feature rows")
	}
	for i, row := range X {
		if len(row) != d {
			return nil, fmt.Errorf("regress: row %d has %d features, want %d", i, len(row), d)
		}
	}
	if lambda < 0 {
		return nil, fmt.Errorf("regress: negative lambda %v", lambda)
	}

	// Augment with a bias column: solve (A'A + λI)w = A'y for A = [X | 1].
	k := d + 1
	ata := make([][]float64, k)
	for i := range ata {
		ata[i] = make([]float64, k+1) // last column holds A'y
	}
	for r := 0; r < n; r++ {
		row := X[r]
		for i := 0; i < k; i++ {
			xi := 1.0
			if i < d {
				xi = row[i]
			}
			for j := i; j < k; j++ {
				xj := 1.0
				if j < d {
					xj = row[j]
				}
				ata[i][j] += xi * xj
			}
			ata[i][k] += xi * y[r]
		}
	}
	// Mirror the upper triangle and add the ridge (not on the bias).
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			ata[i][j] = ata[j][i]
		}
		if i < d {
			ata[i][i] += lambda
		}
	}

	w, err := solve(ata, k)
	if err != nil {
		return nil, err
	}
	return &Linear{W: w[:d], B: w[d], Lambda: lambda}, nil
}

// solve performs Gaussian elimination with partial pivoting on the k×(k+1)
// augmented matrix m.
func solve(m [][]float64, k int) ([]float64, error) {
	for col := 0; col < k; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < k; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("regress: singular system at column %d (add ridge)", col)
		}
		m[col], m[pivot] = m[pivot], m[col]
		// Eliminate.
		for r := 0; r < k; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c <= k; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	w := make([]float64, k)
	for i := 0; i < k; i++ {
		w[i] = m[i][k] / m[i][i]
	}
	return w, nil
}

// Predict evaluates the model on one feature vector.
func (l *Linear) Predict(x []float64) float64 {
	if len(x) != len(l.W) {
		panic(fmt.Sprintf("regress: Predict with %d features, model has %d", len(x), len(l.W)))
	}
	y := l.B
	for i, xi := range x {
		y += l.W[i] * xi
	}
	return y
}

// PredictAll evaluates the model on every row.
func (l *Linear) PredictAll(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = l.Predict(x)
	}
	return out
}
