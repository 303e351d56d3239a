package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/deeppower/deeppower/internal/sim"
)

// TestAdamTrainingKernelIdentity trains two copies of one MLP for 200 Adam
// steps on the same batches, one on the portable kernels and one on the
// vector kernels, and requires every final weight and bias to agree bit for
// bit. The widths leave Out%4 remainders and rows with vector tails, and
// each step's weights feed the next step's kernels, so one differing bit
// anywhere would compound.
func TestAdamTrainingKernelIdentity(t *testing.T) {
	if !useAVX2 {
		t.Skip("this build selects no vector kernels to compare")
	}
	rng := sim.NewRNG(61)
	vec := NewMLP([]int{6, 32, 23, 17, 3}, ReLU, Sigmoid, rng)
	port := vec.Clone()
	vecOpt, portOpt := NewAdam(vec.Layers, 0.01), NewAdam(port.Layers, 0.01)
	const n = 64
	grad := make([]float64, n*3)
	step := func(m *MLP, opt *Adam, x, target []float64) {
		MSE(m.ForwardBatch(x, n), target, grad)
		m.BackwardBatch(grad, n)
		opt.Step()
	}
	for s := 0; s < 200; s++ {
		x, target := randBatch(rng, n, 6), randBatch(rng, n, 3)
		step(vec, vecOpt, x, target)
		onPortable(func() { step(port, portOpt, x, target) })
	}
	for li := range vec.Layers {
		bitEq(t, fmt.Sprintf("layer %d W", li), vec.Layers[li].W, port.Layers[li].W)
		bitEq(t, fmt.Sprintf("layer %d B", li), vec.Layers[li].B, port.Layers[li].B)
	}
}

// TestAdamSpecialValues runs Adam steps, with and without the gradient-norm
// clip, and a soft update on the portable kernels and on the ones this build
// selects, over gradients, moments and
// weights that hold the values a packed kernel could get wrong — NaN with
// different payloads, ±Inf, subnormals, −0, the largest finite number — and
// over slices whose lengths leave every vector tail. The paths must agree
// bit for bit, except that two NaNs may carry different payloads (see
// FuzzDenseKernels).
func TestAdamSpecialValues(t *testing.T) {
	specials := []float64{
		math.NaN(), math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff4000000000abc),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64,
		0x1p-1040, math.Copysign(0, -1), 0, math.MaxFloat64, -math.MaxFloat64, 1e-300, 0.75, -2.5,
	}
	// Each case fills the layers' weights, gradients and moments from the
	// specials, offset per slice so that every value meets every other; a
	// "finite" case keeps only the finite ones, whose norm the clip rescales.
	type state struct{ w, g, m, v [][]float64 }
	run := func(finite bool, clip float64, offset int) state {
		rng := sim.NewRNG(67)
		layers := []*Dense{NewDense(3, 5, ReLU, rng), NewDense(1, 1, Identity, rng), NewDense(6, 7, Sigmoid, rng)}
		opt := NewAdam(layers, 0.01)
		opt.MaxGradNorm = clip
		k := offset
		fill := func(v []float64) {
			for i := range v {
				x := specials[k%len(specials)]
				for finite && (math.IsNaN(x) || math.IsInf(x, 0)) {
					k++
					x = specials[k%len(specials)]
				}
				v[i] = x
				k += 7
			}
		}
		for li, l := range layers {
			fill(l.W)
			fill(l.B)
			fill(opt.mw[li])
			fill(opt.mb[li])
			fill(opt.vw[li])
			fill(opt.vb[li])
		}
		var st state
		for step := 0; step < 3; step++ {
			for _, l := range layers {
				fill(l.GW)
				fill(l.GB)
			}
			opt.Step()
		}
		target := NewDense(6, 7, Sigmoid, rng)
		fill(target.W)
		fill(target.B)
		target.SoftUpdateFrom(layers[2], 0.01)
		for li, l := range append(layers, target) {
			st.w = append(st.w, l.W, l.B)
			if li < len(layers) {
				st.m = append(st.m, opt.mw[li], opt.mb[li])
				st.v = append(st.v, opt.vw[li], opt.vb[li])
			}
		}
		return st
	}
	for _, finite := range []bool{false, true} {
		for _, clip := range []float64{0, 5, 1e-3} {
			for offset := 0; offset < len(specials); offset++ {
				var port state
				onPortable(func() { port = run(finite, clip, offset) })
				vec := run(finite, clip, offset)
				what := fmt.Sprintf("finite %v, clip %v, offset %d: ", finite, clip, offset)
				for i := range vec.w {
					sameOrNaN(t, what+"weights", vec.w[i], port.w[i])
				}
				for i := range vec.m {
					sameOrNaN(t, what+"first moment", vec.m[i], port.m[i])
					sameOrNaN(t, what+"second moment", vec.v[i], port.v[i])
				}
			}
		}
	}
}

// fuzzValue maps a byte to a layer value: mostly ordinary numbers, and one
// byte in six a value a kernel could get wrong — ±0, NaNs with different
// payloads and signs (a quiet one, x86's default, a signalling one), ±Inf,
// subnormals, the largest finite number.
func fuzzValue(b byte) float64 {
	switch b % 64 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.NaN()
	case 3:
		return math.Float64frombits(0xfff8000000000000)
	case 4:
		return math.Float64frombits(0x7ff4000000000abc)
	case 5:
		return math.Inf(1)
	case 6:
		return math.Inf(-1)
	case 7:
		return math.SmallestNonzeroFloat64
	case 8:
		return -3 * math.SmallestNonzeroFloat64
	case 9:
		return 0x1p-1040 // subnormal, with more than one bit set below
	case 10:
		return math.MaxFloat64
	default:
		return float64(int8(b)) / 37
	}
}

// kernelResults is everything one layer's batched kernels produce for one
// input: ForwardBatch's output, BackwardBatch's input and parameter
// gradients, ParamGradBatch's parameter gradients and InputGradBatch's input
// gradient over [lo, hi).
type kernelResults struct {
	y, dx, gw, gb, paramGW, paramGB, inputDX []float64
}

func runKernels(ref *Dense, x, dy []float64, n, lo, hi int) kernelResults {
	var r kernelResults
	full := ref.Clone()
	r.y = append(r.y, full.ForwardBatch(x, n)...)
	r.dx = append(r.dx, full.BackwardBatch(dy, n)...)
	r.gw, r.gb = full.GW, full.GB
	params := ref.Clone()
	params.ForwardBatch(x, n)
	params.ParamGradBatch(dy, n)
	r.paramGW, r.paramGB = params.GW, params.GB
	inputs := ref.Clone()
	inputs.ForwardBatch(x, n)
	r.inputDX = append(r.inputDX, inputs.InputGradBatch(dy, n, lo, hi)...)
	return r
}

func allFinite(vs ...[]float64) bool {
	for _, v := range vs {
		for _, f := range v {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return false
			}
		}
	}
	return true
}

// sameOrNaN is bitEq that accepts any two NaNs as equal: the one
// difference FuzzDenseKernels allows once an input is not finite.
func sameOrNaN(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s[%d]: %v (bits %x) vs %v (bits %x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// FuzzDenseKernels runs one layer of fuzz-chosen shape, activation, values
// and δ zero pattern through ForwardBatch, BackwardBatch, ParamGradBatch and
// InputGradBatch on every kernel path, and through n per-sample
// Forward/Backward calls, and requires them all to agree.
//
//   - With every input finite the agreement is bit for bit. A NaN made
//     inside the layer is x86's one default NaN (or, past a sigmoid, its
//     negation, for every unit alike), so no two payloads can meet.
//   - With a non-finite input, every result still agrees bit for bit except
//     that two NaNs may carry different payloads. When both operands of a
//     multiply or add are NaN, x86 returns the first one's payload, and
//     which operand comes first in a Go loop is the compiler's choice: it
//     differs between the per-sample and batched loops, and even between a
//     plain and a coverage-instrumented build of the same loop. (The vector
//     kernels follow the portable loops' order as a plain build compiles
//     them.) The backward is compared only while x and W are finite, the
//     condition under which skipping a zero δ is exact (DESIGN.md §8).
func FuzzDenseKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, inB, outB, nB, actB, loB, hiB uint8, zeros uint64, vals []byte) {
		in, out, n := 1+int(inB%40), 1+int(outB%40), 1+int(nB%70)
		lo := int(loB) % in
		hi := lo + 1 + int(hiB)%(in-lo)
		value := func(k int) float64 {
			if len(vals) == 0 {
				return fuzzValue(byte(11 + k%53))
			}
			return fuzzValue(vals[k%len(vals)] + byte(k/len(vals))*11)
		}
		ref := NewDense(in, out, Activation(actB%4), sim.NewRNG(1))
		k := 0
		fill := func(v []float64) {
			for i := range v {
				v[i] = value(k)
				k++
			}
		}
		x, dy := make([]float64, n*in), make([]float64, n*out)
		fill(ref.W)
		fill(ref.B)
		fill(x)
		fill(dy)
		for i := range dy {
			if zeros&(1<<(i%64)) != 0 {
				dy[i] = 0
			}
		}

		eq := bitEq
		if !allFinite(ref.W, ref.B, x, dy) {
			eq = sameOrNaN
		}
		var got []kernelResults
		forEachKernel(t, func(t *testing.T) { got = append(got, runKernels(ref, x, dy, n, lo, hi)) })
		p := got[0]
		for _, v := range got[1:] {
			eq(t, "avx2 vs portable y", v.y, p.y)
			eq(t, "avx2 vs portable dx", v.dx, p.dx)
			eq(t, "avx2 vs portable GW", v.gw, p.gw)
			eq(t, "avx2 vs portable GB", v.gb, p.gb)
			eq(t, "avx2 vs portable ParamGradBatch GW", v.paramGW, p.paramGW)
			eq(t, "avx2 vs portable ParamGradBatch GB", v.paramGB, p.paramGB)
			eq(t, "avx2 vs portable InputGradBatch dx", v.inputDX, p.inputDX)
		}

		seq := ref.Clone()
		refY, refDX := make([]float64, n*out), make([]float64, n*in)
		for b := 0; b < n; b++ {
			copy(refY[b*out:], seq.Forward(x[b*in:(b+1)*in]))
			copy(refDX[b*in:], seq.Backward(dy[b*out:(b+1)*out]))
		}
		refCols := make([]float64, 0, n*(hi-lo))
		for b := 0; b < n; b++ {
			refCols = append(refCols, refDX[b*in+lo:b*in+hi]...)
		}
		eq(t, "y", p.y, refY)
		if !allFinite(ref.W, x) {
			return
		}
		eq(t, "dx", p.dx, refDX)
		eq(t, "GW", p.gw, seq.GW)
		eq(t, "GB", p.gb, seq.GB)
		eq(t, "ParamGradBatch GW", p.paramGW, seq.GW)
		eq(t, "ParamGradBatch GB", p.paramGB, seq.GB)
		eq(t, "InputGradBatch dx", p.inputDX, refCols)
	})
}
