package nn

import "math"

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

// forwardAVX2 computes, for each of n samples,
// y[b·out+o] = bias[o] + Σ_i wt[i·(out&^3)+o]·x[b·in+i] over the units
// o < out&^3, the sum seeded from the bias and taken in ascending i: blocks
// of 16, 8 and 4 units in 4, 2 and 1 accumulators fed by one broadcast x[i].
//
//go:noescape
func forwardAVX2(y, x, wt, bias []float64, n, in, out int)

// backwardAVX2 is backwardBatch's walk over a batch whose δ = dy·σ′(y) is
// already in delta ([n×out]): it accumulates GW and GB when gw and gb are
// not empty, and adds the input gradient over W's columns [lo, lo+cols)
// into dx ([n×cols]) when cols > 0. surv is scratch for out unit indices.
//
//go:noescape
func backwardAVX2(delta, x, w, gw, gb, dx []float64, surv []int, in, out, lo, cols int)

// forwardVector computes the units [0, Out&^3) of all n samples of
// ForwardBatch on the AVX2 kernel and returns Out&^3, or returns 0 without
// computing anything. It first transposes those units' rows of W into wt, so
// the kernel reads one contiguous run of weights per input: the copy costs
// 1/n of the kernel's multiply-adds, and because it is rewritten from W on
// every call no Adam step, soft update, rollback or load can leave it stale.
func (d *Dense) forwardVector(n int) int {
	in, vout := d.In, d.Out&^3
	if !useAVX2 || vout == 0 {
		return 0
	}
	if cap(d.wt) < in*vout {
		d.wt = make([]float64, in*vout)
	}
	wt := d.wt[:in*vout]
	for o := 0; o < vout; o++ {
		for i, w := range d.W[o*in : (o+1)*in] {
			wt[i*vout+o] = w
		}
	}
	forwardAVX2(d.by, d.bx, wt, d.B, n, in, d.Out)
	return vout
}

// backwardVector runs backwardBatch on the AVX2 walk and reports true, or
// reports false without computing anything. δ is computed here for the whole
// batch, by the expression backwardBatch evaluates per unit; the walk in
// assembly skips its zeros and pairs the survivors exactly as the Go walk
// does.
func (d *Dense) backwardVector(dy, bdx []float64, n int, params bool, lo, hi int) bool {
	if !useAVX2 {
		return false
	}
	if cap(d.bdelta) < n*d.Out {
		d.bdelta = make([]float64, n*d.Out)
	}
	if d.surv == nil {
		d.surv = make([]int, d.Out)
	}
	delta, by := d.bdelta[:n*d.Out], d.by[:n*d.Out]
	if d.Act == ReLU {
		// DerivFromOutput's 1 or 0 as a select on the bit pattern: whether
		// y > 0 is a coin flip a branch would mispredict (see applyAll).
		// y > 0 exactly when its bits, less one, fall below +Inf's: that
		// excludes ±0, the negatives and NaN. The derivative is never NaN,
		// so the product's operand order is moot.
		const inf = 0x7ff0000000000000
		for i, y := range by {
			deriv := math.Float64bits(1)
			if math.Float64bits(y)-1 >= inf {
				deriv = 0
			}
			delta[i] = dy[i] * math.Float64frombits(deriv)
		}
	} else {
		for i, y := range by {
			delta[i] = dy[i] * d.Act.DerivFromOutput(y)
		}
	}
	gw, gb := d.GW, d.GB
	if !params {
		gw, gb = nil, nil
	}
	backwardAVX2(delta, d.bx, d.W, gw, gb, bdx, d.surv, d.In, d.Out, lo, hi-lo)
	return true
}
