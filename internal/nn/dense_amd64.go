package nn

// The AVX2 kernels of dense_amd64.s. Each packed lane performs its scalar
// element's operations in the scalar order, multiply and add as separate
// instructions (never a fused multiply-add, which rounds once where the Go
// code rounds twice), so the vector path is bit-identical to the portable
// one (DESIGN.md §8.2). Every multiply and add also takes its operands in
// the order a plain build of the portable loop does, since x86 returns the
// first operand's payload when both are NaN; the tests do not hold NaN
// payloads to that, because the compiler's order is not fixed.

// useAVX2 selects the vector kernels: the CPU and the OS support AVX2 and
// this is not a race-detector build. Read once.
var useAVX2 = !raceEnabled && hasAVX2()

// hasAVX2 reports AVX2 (CPUID leaf 7) with the AVX state enabled by the OS:
// AVX and OSXSAVE (leaf 1), and XMM|YMM in XCR0.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// transposeAVX2 writes dst[i·rows+o] = src[o·cols+i] for o < rows, a
// multiple of 4, and i < cols, through 4×4 register transposes.
//
//go:noescape
func transposeAVX2(dst, src []float64, rows, cols int)

// forwardAVX2 computes, for each of n samples,
// y[b·out+o] = bias[o] + Σ_i wt[i·(out&^3)+o]·x[b·in+i] over the units
// o < out&^3, the sum seeded from the bias and taken in ascending i: blocks
// of 16, 8 and 4 units in 4, 2 and 1 accumulators fed by one broadcast x[i].
// With relu = 1 it stores ReLU of each sum instead.
//
//go:noescape
func forwardAVX2(y, x, wt, bias []float64, n, in, out, relu int)

// narrowAVX2 computes the same sums, and the same ReLU when relu = 1, for
// the units [lo, out) of the first n samples, n a multiple of 4, reading W
// ([out×in]) directly: one register holds one unit of four samples.
//
//go:noescape
func narrowAVX2(y, x, w, bias []float64, n, in, out, lo, relu int)

// backwardAVX2 is backwardBatch's walk, δ = dy·σ′(y) included, for the
// activation act: it accumulates GW and GB when gw and gb are not empty,
// and adds the input gradient over W's columns [lo, lo+cols) into dx
// ([n×cols]) when cols > 0. surv is scratch for 2·out words.
//
//go:noescape
func backwardAVX2(dy, y, x, w, gw, gb, dx []float64, surv []int, in, out, lo, cols, act int)

// adamAVX2 is Adam.apply's loop with k = {β1, 1−β1, β2, 1−β2, c1, c2, lr, ε}.
//
//go:noescape
func adamAVX2(w, g, m, v []float64, k *[8]float64)

// blendAVX2 is SoftUpdateFrom's loop: dst[i] = τ·src[i] + keep·dst[i], with
// keep = 1−τ.
//
//go:noescape
func blendAVX2(dst, src []float64, tau, keep float64)

// forwardVector computes, on the AVX2 kernels, the units [0, done) of all n
// samples of ForwardBatch and every unit of the samples [0, rows), applying
// ReLU to them on a ReLU layer, and returns done = Out&^3 and rows = n
// (n&^3 when Out%4 > 0); or it returns 0, 0 without computing anything.
//
// The units [0, Out&^3) run on forwardAVX2, which first needs those units'
// rows of W transposed into wt, so it reads one contiguous run of weights
// per input: the copy costs 1/n of the kernel's multiply-adds, and because
// it is rewritten from W on every call no Adam step, soft update, rollback
// or load can leave it stale. The Out%4 others, a whole layer when Out < 4,
// run on narrowAVX2 four samples at a time.
func (d *Dense) forwardVector(n int) (done, rows int) {
	if !useAVX2 {
		return 0, 0
	}
	in, out, vout := d.In, d.Out, d.Out&^3
	relu := 0
	if d.Act == ReLU {
		relu = 1
	}
	if vout > 0 {
		if cap(d.wt) < in*vout {
			d.wt = make([]float64, in*vout)
		}
		wt := d.wt[:in*vout]
		transposeAVX2(wt, d.W, vout, in)
		forwardAVX2(d.by, d.bx, wt, d.B, n, in, out, relu)
	}
	if vout == out {
		return vout, n
	}
	if rows = n &^ 3; rows > 0 {
		narrowAVX2(d.by, d.bx, d.W, d.B, rows, in, out, vout, relu)
	}
	return vout, rows
}

// backwardVector runs backwardBatch on the AVX2 walk and reports true, or
// reports false without computing anything. The walk computes each unit's
// δ by DerivFromOutput's expression, skips its zeros and pairs the
// survivors exactly as the Go walk does. It declines Tanh layers, which no
// trainer builds: the Go walk computes their δ.
func (d *Dense) backwardVector(dy, bdx []float64, n int, params bool, lo, hi int) bool {
	if !useAVX2 || d.Act == Tanh {
		return false
	}
	if d.surv == nil {
		d.surv = make([]int, 2*d.Out)
	}
	gw, gb := d.GW, d.GB
	if !params {
		gw, gb = nil, nil
	}
	backwardAVX2(dy, d.by[:n*d.Out], d.bx, d.W, gw, gb, bdx, d.surv, d.In, d.Out, lo, hi-lo, int(d.Act))
	return true
}

// adamVector runs Adam.apply on adamAVX2 and reports true, or reports false.
func adamVector(w, g, m, v []float64, k *[8]float64) bool {
	if useAVX2 {
		adamAVX2(w, g, m, v, k)
	}
	return useAVX2
}

// blendVector runs SoftUpdateFrom's blend on blendAVX2 and reports true, or
// reports false.
func blendVector(dst, src []float64, tau float64) bool {
	if useAVX2 {
		blendAVX2(dst, src, tau, 1-tau)
	}
	return useAVX2
}
