package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/deeppower/deeppower/internal/sim"
)

// randBatch fills a row-major [n×dim] buffer with values in (-1.5, 1.5) —
// wide enough to hit both ReLU regimes and the tanh/sigmoid curvature.
func randBatch(rng *sim.RNG, n, dim int) []float64 {
	x := make([]float64, n*dim)
	for i := range x {
		x[i] = rng.Uniform(-1.5, 1.5)
	}
	return x
}

// bitEq compares float64 slices for exact bit equality (no tolerance: the
// batched kernels promise the same arithmetic in the same order).
func bitEq(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: batched %v (bits %x) vs per-sample %v (bits %x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// deltaCases shape the [n×out] output gradient of TestDenseBatchBitIdentity
// into the δ patterns the batched backward's zero-skip has to walk: its
// survivors are paired, so what matters is how many there are in a row and
// where the last one sits.
var deltaCases = []struct {
	name  string
	shape func(dy []float64, n, out int)
}{
	{"dense", func([]float64, int, int) {}},
	{"one sample all zero", func(dy []float64, n, out int) {
		row := dy[(n/2)*out : (n/2+1)*out]
		for o := range row {
			row[o] = 0
		}
	}},
	{"one active unit", func(dy []float64, _, out int) { keepUnits(dy, out, 2) }},
	{"odd number of active units", func(dy []float64, _, out int) { keepUnits(dy, out, 0, 3, 4) }},
	{"last unit the only active one", func(dy []float64, _, out int) { keepUnits(dy, out, out-1) }},
	{"one-hot per row", func(dy []float64, _, out int) { // DQN's output gradient
		for i := range dy {
			if i%out != (i/out)%out {
				dy[i] = 0
			}
		}
	}},
	{"negative zero on an active unit", func(dy []float64, _, out int) {
		for b := 0; b*out < len(dy); b++ {
			dy[b*out+b%out] = math.Copysign(0, -1)
		}
	}},
}

// keepUnits zeroes every column of dy but the listed ones.
func keepUnits(dy []float64, out int, units ...int) {
	for i := range dy {
		keep := false
		for _, u := range units {
			keep = keep || i%out == u
		}
		if !keep {
			dy[i] = 0
		}
	}
}

// TestDenseBatchBitIdentity asserts ForwardBatch and the three batched
// backward kernels reproduce n per-sample Forward/Backward calls bit-for-bit
// — outputs, accumulated weight/bias gradients, and input gradients — on
// every kernel path, for every activation, and for every δ pattern of
// deltaCases. The shapes reach every tail of the vector kernels: outputs in
// 16-, 8- and 4-unit blocks with and without an Out%4 remainder, layers
// narrower than one block, rows shorter than one vector and rows with a
// one-, two- and three-element remainder, one sample and many. Each pattern
// runs on the drawn biases (a ReLU layer then adds its own inactive units to
// the zeros) and on biases pushed so high every ReLU unit is active, where
// the dy pattern is the δ pattern.
func TestDenseBatchBitIdentity(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		for _, in := range []int{1, 2, 6, 34} {
			lo, hi := in/3, in-in/4 // a column range that starts and ends mid-row where it can
			for _, out := range []int{1, 3, 4, 5, 8, 12, 17, 24, 32} {
				for _, act := range []Activation{Identity, ReLU, Sigmoid, Tanh} {
					for _, c := range deltaCases {
						for _, lift := range []float64{0, 100} {
							for _, n := range []int{1, 3, 64} {
								what := fmt.Sprintf("%d→%d/%s/%s/lift %v/n=%d ", in, out, act, c.name, lift, n)
								denseBitIdentity(t, what, in, out, act, c.shape, lift, n, lo, hi)
							}
						}
					}
				}
			}
		}
	})
}

// denseBitIdentity is one case of TestDenseBatchBitIdentity.
func denseBitIdentity(t *testing.T, what string, in, out int, act Activation, shape func([]float64, int, int), lift float64, n, lo, hi int) {
	t.Helper()
	rng := sim.NewRNG(11)
	ref := NewDense(in, out, act, rng)
	for o := range ref.B {
		ref.B[o] += lift
	}
	x := randBatch(rng, n, ref.In)
	dy := randBatch(rng, n, ref.Out)
	shape(dy, n, ref.Out)

	// Per-sample reference: accumulate gradients across the batch.
	refY := make([]float64, n*ref.Out)
	refDX := make([]float64, n*ref.In)
	for b := 0; b < n; b++ {
		y := ref.Forward(x[b*ref.In : (b+1)*ref.In])
		copy(refY[b*ref.Out:], y)
		dx := ref.Backward(dy[b*ref.Out : (b+1)*ref.Out])
		copy(refDX[b*ref.In:], dx)
	}

	full := ref.Clone()
	bitEq(t, what+"y", full.ForwardBatch(x, n), refY)
	bitEq(t, what+"dx", full.BackwardBatch(dy, n), refDX)
	bitEq(t, what+"GW", full.GW, ref.GW)
	bitEq(t, what+"GB", full.GB, ref.GB)

	params := ref.Clone()
	params.ForwardBatch(x, n)
	params.ParamGradBatch(dy, n)
	bitEq(t, what+"ParamGradBatch GW", params.GW, ref.GW)
	bitEq(t, what+"ParamGradBatch GB", params.GB, ref.GB)

	inputs := ref.Clone()
	inputs.ForwardBatch(x, n)
	bitEq(t, what+"InputGradBatch dx", inputs.InputGradBatch(dy, n, 0, ref.In), refDX)
	cols := make([]float64, 0, n*(hi-lo))
	for b := 0; b < n; b++ {
		cols = append(cols, refDX[b*ref.In+lo:b*ref.In+hi]...)
	}
	bitEq(t, fmt.Sprintf("%sInputGradBatch dx[:, %d:%d]", what, lo, hi), inputs.InputGradBatch(dy, n, lo, hi), cols)
	bitEq(t, what+"InputGradBatch GW", inputs.GW, make([]float64, len(ref.GW)))
	bitEq(t, what+"InputGradBatch GB", inputs.GB, make([]float64, len(ref.GB)))
}

// TestForwardBatchSpecialValues: the batched activation pass treats the
// pre-activations a comparison could get wrong — NaN, ±0, ±Inf — exactly as
// Apply does in the per-sample Forward, for every activation, on every
// kernel path.
func TestForwardBatchSpecialValues(t *testing.T) {
	forEachKernel(t, forwardBatchSpecialValues)
}

func forwardBatchSpecialValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	pre := []float64{math.NaN(), negZero, 0, -1, 2, math.Inf(-1), math.Inf(1), -math.SmallestNonzeroFloat64, -math.NaN()}
	for _, act := range []Activation{Identity, ReLU, Sigmoid, Tanh} {
		d := NewDense(2, len(pre), act, sim.NewRNG(53))
		for i := range d.W {
			d.W[i] = negZero // −0·x + b leaves b's bits alone, −0 included
		}
		copy(d.B, pre)
		x := []float64{0.5, 1.5, 2.5, 0.25}
		want := append(append([]float64(nil), d.Forward(x[:2])...), d.Forward(x[2:])...)
		bitEq(t, act.String()+" y", d.ForwardBatch(x, 2), want)
		if act == ReLU && (!math.IsNaN(want[0]) || math.Float64bits(want[1]) != math.Float64bits(negZero)) {
			t.Fatalf("the reference ReLU turned NaN, −0 into %v, %v: the row tests nothing", want[0], want[1])
		}
	}
}

// netBitIdentity runs the per-sample and batched paths of two clones of the
// same network and asserts outputs and every parameter gradient agree
// bit-for-bit. (A network's batched backward computes no dL/dinput; input
// gradients are checked layer by layer in TestDenseBatchBitIdentity.)
func netBitIdentity(t *testing.T, ref, bat Network, n int, seed int64) {
	t.Helper()
	rng := sim.NewRNG(seed)
	in, out := ref.InDim(), ref.OutDim()
	x := randBatch(rng, n, in)
	dy := randBatch(rng, n, out)

	refY := make([]float64, n*out)
	for b := 0; b < n; b++ {
		y := ref.Forward(x[b*in : (b+1)*in])
		copy(refY[b*out:], y)
		ref.Backward(dy[b*out : (b+1)*out])
	}

	gotY := bat.ForwardBatch(x, n)
	bat.BackwardBatch(dy, n)

	bitEq(t, "y", gotY, refY)
	rp, bp := ref.Params(), bat.Params()
	if len(rp) != len(bp) {
		t.Fatalf("param count %d vs %d", len(rp), len(bp))
	}
	for li := range rp {
		bitEq(t, "GW", bp[li].GW, rp[li].GW)
		bitEq(t, "GB", bp[li].GB, rp[li].GB)
	}
}

// TestMLPBatchBitIdentity and TestTwoHeadBatchBitIdentity run netBitIdentity
// over both topologies and every output activation, on every kernel path.
func TestMLPBatchBitIdentity(t *testing.T) {
	forEachKernel(t, mlpBatchBitIdentity)
}

func mlpBatchBitIdentity(t *testing.T) {
	for _, outAct := range []Activation{Identity, ReLU, Sigmoid, Tanh} {
		rng := sim.NewRNG(13)
		ref := NewMLP([]int{8, 32, 24, 16, 2}, ReLU, outAct, rng)
		netBitIdentity(t, ref, ref.Clone(), 64, 17)
	}
}

func TestTwoHeadBatchBitIdentity(t *testing.T) {
	forEachKernel(t, twoHeadBatchBitIdentity)
}

func twoHeadBatchBitIdentity(t *testing.T) {
	for _, outAct := range []Activation{Identity, ReLU, Sigmoid, Tanh} {
		rng := sim.NewRNG(19)
		ref := NewTwoHead(8, []int{32, 24}, []int{16}, 2, outAct, rng)
		netBitIdentity(t, ref, ref.CloneNet(), 64, 23)
	}
	// Degenerate topologies: no trunk, and heads that attach directly to
	// the trunk output.
	rng := sim.NewRNG(29)
	ref := NewTwoHead(6, nil, []int{8}, 3, Sigmoid, rng)
	netBitIdentity(t, ref, ref.CloneNet(), 10, 31)
	rng = sim.NewRNG(37)
	ref = NewTwoHead(6, []int{12}, nil, 2, Tanh, rng)
	netBitIdentity(t, ref, ref.CloneNet(), 10, 41)
}

// TestBatchKernelsZeroAlloc: after a warm-up call has grown the scratch
// arenas, the batched forward/backward kernels must never touch the heap, on
// any kernel path.
func TestBatchKernelsZeroAlloc(t *testing.T) {
	forEachKernel(t, batchKernelsZeroAlloc)
}

func batchKernelsZeroAlloc(t *testing.T) {
	rng := sim.NewRNG(43)
	const n = 64
	for name, net := range map[string]Network{
		"mlp":     NewMLP([]int{8, 32, 24, 16, 2}, ReLU, Sigmoid, rng),
		"twohead": NewTwoHead(8, []int{32, 24}, []int{16}, 2, Sigmoid, rng),
	} {
		x := randBatch(rng, n, net.InDim())
		dy := randBatch(rng, n, net.OutDim())
		net.ForwardBatch(x, n) // warm-up grows arenas
		net.BackwardBatch(dy, n)
		allocs := testing.AllocsPerRun(10, func() {
			net.ForwardBatch(x, n)
			net.BackwardBatch(dy, n)
			net.ZeroGrad()
		})
		if allocs != 0 {
			t.Errorf("%s: batched step allocates %v times, want 0", name, allocs)
		}
	}
	// The two kernels no Network method reaches on every layer: they share
	// the full kernel's scratch and must not grow any of their own.
	d := NewDense(34, 24, ReLU, rng)
	x, dy := randBatch(rng, n, d.In), randBatch(rng, n, d.Out)
	d.ForwardBatch(x, n)
	allocs := testing.AllocsPerRun(10, func() {
		d.ForwardBatch(x, n)
		d.ParamGradBatch(dy, n)
		d.InputGradBatch(dy, n, 32, 34)
		d.ZeroGrad()
	})
	if allocs != 0 {
		t.Errorf("ParamGradBatch + InputGradBatch allocate %v times, want 0", allocs)
	}
}

// TestBackwardScratchReused pins the documented Backward contract: the
// returned dL/dx slice is layer-owned scratch, not a fresh allocation.
func TestBackwardScratchReused(t *testing.T) {
	rng := sim.NewRNG(47)
	d := NewDense(4, 3, ReLU, rng)
	x := []float64{0.1, -0.2, 0.3, 0.4}
	dy := []float64{1, -1, 0.5}
	d.Forward(x)
	first := d.Backward(dy)
	d.Forward(x)
	second := d.Backward(dy)
	if &first[0] != &second[0] {
		t.Error("Backward allocated a fresh dx instead of reusing scratch")
	}
	allocs := testing.AllocsPerRun(10, func() {
		d.Forward(x)
		d.Backward(dy)
	})
	if allocs != 0 {
		t.Errorf("per-sample Forward/Backward allocates %v times, want 0", allocs)
	}
	// The batched kernels share one layer-owned dx scratch, whatever the
	// column range asked for.
	const n = 5
	xb, dyb := randBatch(rng, n, d.In), randBatch(rng, n, d.Out)
	d.ForwardBatch(xb, n)
	full := d.BackwardBatch(dyb, n)
	if again := d.BackwardBatch(dyb, n); &full[0] != &again[0] {
		t.Error("BackwardBatch allocated a fresh dx instead of reusing scratch")
	}
	if part := d.InputGradBatch(dyb, n, 1, 3); &full[0] != &part[0] {
		t.Error("InputGradBatch allocated its own dx instead of reusing BackwardBatch's scratch")
	}
}
