// Package nn is a from-scratch dense neural-network library with manual
// backpropagation — the substitute for the PyTorch models in the paper's
// implementation (§4.6). The paper's networks are tiny MLPs (the actor has
// ~2k parameters), so fully-connected layers, ReLU/sigmoid/tanh activations,
// Adam, and soft target updates cover everything DDPG, TD3, DQN, DDQN and SAC
// need.
package nn

import (
	"fmt"
	"math"

	"github.com/deeppower/deeppower/internal/sim"
)

// Activation selects a layer's nonlinearity.
type Activation int

// Supported activations.
const (
	Identity Activation = iota
	ReLU
	Sigmoid
	Tanh
)

// String returns the activation's name.
func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case ReLU:
		return "relu"
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	}
	return fmt.Sprintf("activation(%d)", int(a))
}

// Apply evaluates the activation.
func (a Activation) Apply(x float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	case Tanh:
		return math.Tanh(x)
	default:
		return x
	}
}

// DerivFromOutput returns dσ/dx expressed in terms of the activation's
// output y = σ(x). All supported activations admit this form, which lets
// layers cache only their outputs.
func (a Activation) DerivFromOutput(y float64) float64 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Sigmoid:
		return y * (1 - y)
	case Tanh:
		return 1 - y*y
	default:
		return 1
	}
}

// Dense is one fully-connected layer y = σ(Wx + b) with gradient
// accumulation. It is not safe for concurrent use: Forward caches the
// activations Backward consumes, and ForwardBatch likewise caches for
// BackwardBatch. The per-sample and batched paths keep separate caches, but
// a Backward must always pair with the Forward variant that preceded it.
type Dense struct {
	In, Out int
	W       []float64 // Out×In, row-major
	B       []float64
	Act     Activation

	// Accumulated gradients (same shapes as W, B).
	GW, GB []float64

	// Forward cache (per-sample path) and the Backward dx scratch.
	x, y, dx []float64

	// Batched-path caches: row-major [batch×In] inputs, [batch×Out]
	// outputs, [batch×In] input-gradient scratch, and the row count of the
	// most recent ForwardBatch. Grown on demand, then reused.
	bx, by, bdx []float64
	bn          int

	// The vector kernels' scratch (dense_amd64.go): wt is the forward's
	// [In×Out&^3] transpose of W, rewritten at the top of every ForwardBatch
	// that uses it; surv is the backward's δ row of one sample and its list
	// of surviving units. Grown on demand, then reused.
	wt   []float64
	surv []int
}

// NewDense returns a layer with Xavier/Glorot-uniform initialized weights.
func NewDense(in, out int, act Activation, rng *sim.RNG) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid layer shape %d→%d", in, out))
	}
	d := &Dense{
		In: in, Out: out, Act: act,
		W:  make([]float64, in*out),
		B:  make([]float64, out),
		GW: make([]float64, in*out),
		GB: make([]float64, out),
		x:  make([]float64, in),
		y:  make([]float64, out),
		dx: make([]float64, in),
	}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range d.W {
		d.W[i] = rng.Uniform(-limit, limit)
	}
	return d
}

// Forward computes the layer output for input x and caches both for
// Backward. The returned slice is reused between calls; copy it to retain.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: Forward input %d, layer expects %d", len(x), d.In))
	}
	copy(d.x, x)
	for o := 0; o < d.Out; o++ {
		sum := d.B[o]
		row := d.W[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			sum += row[i] * xi
		}
		d.y[o] = d.Act.Apply(sum)
	}
	return d.y
}

// Backward takes dL/dy (w.r.t. the post-activation output of the most
// recent Forward), accumulates dL/dW and dL/db, and returns dL/dx.
// The returned slice is a layer-owned scratch buffer, overwritten by the
// next Backward call; copy it to retain.
func (d *Dense) Backward(dy []float64) []float64 {
	if len(dy) != d.Out {
		panic(fmt.Sprintf("nn: Backward gradient %d, layer outputs %d", len(dy), d.Out))
	}
	dx := d.dx
	for i := range dx {
		dx[i] = 0
	}
	for o := 0; o < d.Out; o++ {
		delta := dy[o] * d.Act.DerivFromOutput(d.y[o])
		d.GB[o] += delta
		row := d.W[o*d.In : (o+1)*d.In]
		grow := d.GW[o*d.In : (o+1)*d.In]
		for i := 0; i < d.In; i++ {
			grow[i] += delta * d.x[i]
			dx[i] += delta * row[i]
		}
	}
	return dx
}

// ensureBatch grows the batched caches to hold n rows.
func (d *Dense) ensureBatch(n int) {
	if cap(d.bx) < n*d.In {
		d.bx = make([]float64, n*d.In)
		d.bdx = make([]float64, n*d.In)
	}
	if cap(d.by) < n*d.Out {
		d.by = make([]float64, n*d.Out)
	}
	d.bx = d.bx[:n*d.In]
	d.by = d.by[:n*d.Out]
	d.bdx = d.bdx[:n*d.In]
	d.bn = n
}

// ForwardBatch computes the layer output for n row-major [n×In] inputs and
// caches both sides for the batched backward kernels. The returned [n×Out]
// slice is a layer-owned buffer reused between calls.
//
// The kernel computes four output units at once per sample: four
// independent accumulator chains hide the floating-point add latency that
// serializes a single dot product, and each input element is loaded once
// for all four units. Every accumulator still sums its row in the exact
// index order of Forward (seeded from the bias), so a ForwardBatch over n
// inputs is bit-identical to n Forward calls. ReLU, the activation of every
// hidden layer, is applied to each row as soon as it is computed; the other
// activations run afterwards as one pass over the whole output buffer (see
// applyAll).
//
// Where vector kernels exist (AVX2 on amd64, dense_amd64.go), they compute
// the units [0, Out&^3) of every sample and the remaining Out%4 units of the
// first n&^3 samples first, lane by lane in the same order, ReLU included,
// and the loop below computes only what is left: the Out%4 units of the
// last n%4 samples.
func (d *Dense) ForwardBatch(x []float64, n int) []float64 {
	if n <= 0 || len(x) != n*d.In {
		panic(fmt.Sprintf("nn: ForwardBatch input %d, want %d rows × %d", len(x), n, d.In))
	}
	d.ensureBatch(n)
	copy(d.bx, x)
	in, out := d.In, d.Out
	done, rows := d.forwardVector(n)
	for b := rows; b < n; b++ {
		xrow := d.bx[b*in : (b+1)*in : (b+1)*in]
		yrow := d.by[b*out : (b+1)*out]
		o := done
		for ; o+4 <= out; o += 4 {
			r0 := d.W[o*in : (o+1)*in : (o+1)*in]
			r1 := d.W[(o+1)*in : (o+2)*in : (o+2)*in]
			r2 := d.W[(o+2)*in : (o+3)*in : (o+3)*in]
			r3 := d.W[(o+3)*in : (o+4)*in : (o+4)*in]
			s0, s1, s2, s3 := d.B[o], d.B[o+1], d.B[o+2], d.B[o+3]
			for i, xi := range xrow {
				s0 += r0[i] * xi
				s1 += r1[i] * xi
				s2 += r2[i] * xi
				s3 += r3[i] * xi
			}
			yrow[o], yrow[o+1], yrow[o+2], yrow[o+3] = s0, s1, s2, s3
		}
		for ; o < out; o++ {
			row := d.W[o*in : (o+1)*in : (o+1)*in]
			sum := d.B[o]
			for i, xi := range xrow {
				sum += row[i] * xi
			}
			yrow[o] = sum
		}
		if d.Act == ReLU {
			ReLU.applyAll(yrow[done:])
		}
	}
	if d.Act != ReLU {
		d.Act.applyAll(d.by)
	}
	return d.by
}

// applyAll overwrites every pre-activation in y with Apply of it. The
// activation is chosen once for the buffer instead of once per element, and
// ReLU is written as a select on the bit pattern: whether a pre-activation
// is negative is close to a coin flip, which a branch mispredicts and a
// conditional move does not. NaN and −0 are kept exactly as Apply keeps
// them (neither is < 0).
func (a Activation) applyAll(y []float64) {
	switch a {
	case Identity:
	case ReLU:
		for i, v := range y {
			bits := math.Float64bits(v)
			if v < 0 {
				bits = 0
			}
			y[i] = math.Float64frombits(bits)
		}
	default:
		for i, v := range y {
			y[i] = a.Apply(v)
		}
	}
}

// BackwardBatch takes dL/dy for the most recent ForwardBatch ([n×Out],
// row-major), accumulates dL/dW and dL/db, and returns dL/dx as an [n×In]
// layer-owned scratch buffer — the kernel of a layer whose input is another
// layer's output.
//
// Accumulation order is preserved exactly: each gradient element receives
// its per-sample contributions in ascending sample order, and each dx
// element sums over output units in ascending order — matching n sequential
// Backward calls bit-for-bit (see backwardBatch for the one difference,
// which cannot change a bit either).
func (d *Dense) BackwardBatch(dy []float64, n int) []float64 {
	return d.backwardBatch(dy, n, true, 0, d.In)
}

// ParamGradBatch is BackwardBatch without the input gradient: it accumulates
// dL/dW and dL/db only. It is the kernel of a network's first layer, whose
// input is data — nobody reads dL/d(data).
func (d *Dense) ParamGradBatch(dy []float64, n int) {
	d.backwardBatch(dy, n, true, 0, 0)
}

// InputGradBatch is BackwardBatch without the parameter gradients, over the
// input columns [lo, hi) only: it returns dL/dx[:, lo:hi] as an
// [n×(hi−lo)] layer-owned scratch buffer and leaves GW and GB untouched —
// the kernel for differentiating through a network that is not being
// trained (the critic, in the policy step).
func (d *Dense) InputGradBatch(dy []float64, n, lo, hi int) []float64 {
	if lo < 0 || hi > d.In || lo >= hi {
		panic(fmt.Sprintf("nn: InputGradBatch columns [%d,%d) of %d", lo, hi, d.In))
	}
	return d.backwardBatch(dy, n, false, lo, hi)
}

// backwardBatch is the one batched backward: parameter gradients when params
// is set, input gradients over the columns [lo, hi) when that range is not
// empty.
//
// Samples stay in the outer loop so every GW/GB element receives its
// per-sample contributions in ascending sample order. Within a sample the
// walk visits the output units in ascending order, computes δ = dy·σ′(y) as
// Backward does, and skips the units whose δ is exactly zero: every inactive
// ReLU unit, every row a caller masked out, all but one column of a one-hot
// dy. A zero δ contributes δ·x = ±0 to a gradient and δ·w = ±0 to dx, and
// adding ±0 cannot change an accumulator that started at +0 — such an
// accumulator is never −0, because a sum is −0 only when both terms are —
// so the skip is exact whenever x and w are finite. (When one is not, the
// forward pass already produced a non-finite loss and the trainer's guard
// undoes the whole step; see DESIGN.md §8.) The surviving units are taken
// two at a time; the paired updates stay separate statements
// (t += δ0·w0; t += δ1·w1) — four multiply-adds, never fused — preserving
// the per-element rounding sequence of sequential Backward calls while
// sharing each input load across both units. Where a vector kernel exists
// (AVX2 on amd64, dense_amd64.go), the same walk runs there instead, its row
// updates four elements wide.
func (d *Dense) backwardBatch(dy []float64, n int, params bool, lo, hi int) []float64 {
	if n != d.bn {
		panic(fmt.Sprintf("nn: batched backward rows %d, last ForwardBatch had %d", n, d.bn))
	}
	if len(dy) != n*d.Out {
		panic(fmt.Sprintf("nn: batched backward gradient %d, want %d rows × %d", len(dy), n, d.Out))
	}
	in, out, cols := d.In, d.Out, hi-lo
	bdx := d.bdx[:n*cols]
	for i := range bdx {
		bdx[i] = 0
	}
	if d.backwardVector(dy, bdx, n, params, lo, hi) {
		return bdx
	}
	for b := 0; b < n; b++ {
		xrow := d.bx[b*in : (b+1)*in : (b+1)*in]
		dxrow := bdx[b*cols:][:cols:cols]
		yrow := d.by[b*out:][:out:out]
		dyrow := dy[b*out:][:out:out]
		// Each round scans to the next survivor, then to its partner. (One
		// loop carrying the waiting survivor in a variable is shorter and
		// read 1–5 % slower in BenchmarkTrainStep.)
		for o := 0; ; o++ {
			var d0, d1 float64
			for ; o < out; o++ {
				if d0 = dyrow[o] * d.Act.DerivFromOutput(yrow[o]); d0 != 0 {
					break
				}
			}
			if o == out {
				break
			}
			o0 := o
			for o++; o < out; o++ {
				if d1 = dyrow[o] * d.Act.DerivFromOutput(yrow[o]); d1 != 0 {
					break
				}
			}
			r0 := d.W[o0*in+lo:][:cols:cols]
			if o == out { // an odd survivor
				if params {
					d.GB[o0] += d0
					g0 := d.GW[o0*in : (o0+1)*in : (o0+1)*in]
					for i, xi := range xrow {
						g0[i] += d0 * xi
					}
				}
				for i, w0 := range r0 {
					dxrow[i] += d0 * w0
				}
				break
			}
			r1 := d.W[o*in+lo:][:cols:cols]
			switch {
			case !params:
				for i, w0 := range r0 {
					t := dxrow[i]
					t += d0 * w0
					t += d1 * r1[i]
					dxrow[i] = t
				}
			case cols == 0:
				d.GB[o0] += d0
				d.GB[o] += d1
				g0 := d.GW[o0*in : (o0+1)*in : (o0+1)*in]
				g1 := d.GW[o*in : (o+1)*in : (o+1)*in]
				for i, xi := range xrow {
					g0[i] += d0 * xi
					g1[i] += d1 * xi
				}
			default: // params and the full input row: cols == in
				r0, r1, dxrow := r0[:in], r1[:in], dxrow[:in]
				d.GB[o0] += d0
				d.GB[o] += d1
				g0 := d.GW[o0*in : (o0+1)*in : (o0+1)*in]
				g1 := d.GW[o*in : (o+1)*in : (o+1)*in]
				for i, xi := range xrow {
					g0[i] += d0 * xi
					g1[i] += d1 * xi
					t := dxrow[i]
					t += d0 * r0[i]
					t += d1 * r1[i]
					dxrow[i] = t
				}
			}
		}
	}
	return bdx
}

// ZeroGrad clears accumulated gradients.
func (d *Dense) ZeroGrad() {
	for i := range d.GW {
		d.GW[i] = 0
	}
	for i := range d.GB {
		d.GB[i] = 0
	}
}

// NumParams returns the number of trainable parameters.
func (d *Dense) NumParams() int { return len(d.W) + len(d.B) }

// Clone returns a deep copy of the layer (weights only; caches fresh).
func (d *Dense) Clone() *Dense {
	c := &Dense{
		In: d.In, Out: d.Out, Act: d.Act,
		W:  append([]float64(nil), d.W...),
		B:  append([]float64(nil), d.B...),
		GW: make([]float64, len(d.GW)),
		GB: make([]float64, len(d.GB)),
		x:  make([]float64, d.In),
		y:  make([]float64, d.Out),
		dx: make([]float64, d.In),
	}
	return c
}

// SoftUpdateFrom blends src into this layer:
// θ ← τ·θ_src + (1-τ)·θ. This is the DDPG target-network update.
func (d *Dense) SoftUpdateFrom(src *Dense, tau float64) {
	if d.In != src.In || d.Out != src.Out {
		panic("nn: SoftUpdateFrom shape mismatch")
	}
	blend(d.W, src.W, tau)
	blend(d.B, src.B, tau)
}

// blend is SoftUpdateFrom's loop over one parameter slice; a vector kernel
// runs it where one exists, lane by lane in the same order.
func blend(dst, src []float64, tau float64) {
	if blendVector(dst, src, tau) {
		return
	}
	for i := range dst {
		dst[i] = tau*src[i] + (1-tau)*dst[i]
	}
}
