package stats

import (
	"math"
	"math/bits"
	"sort"
)

// radixMin is the size below which a range goes to the library sort: a
// counting pass over 256 buckets costs more than comparing a few dozen
// values.
const radixMin = 64

// sortFloats sorts xs ascending in place and leaves exactly the array
// sort.Float64s would. Large inputs take an American-flag radix sort on the
// order-preserving bit image of the values: no key array and no scratch
// array, so sorting a result's retained latencies costs time but no memory.
//
// Among values that are neither NaN nor negative zero, float order and key
// order are the same strict order and equal values have equal bits, so a
// full sort has one result whatever algorithm produces it. NaN (which the
// library orders first) and -0 (which it leaves in an order of its own among
// +0) break that, so an input containing either is handed to the library.
func sortFloats(xs []float64) {
	if len(xs) < radixMin {
		sort.Float64s(xs)
		return
	}
	k0 := floatKey(xs[0])
	var varying uint64
	for _, x := range xs {
		b := math.Float64bits(x)
		if b<<1 > 0x7ff<<53 || b == 1<<63 { // NaN or -0
			sort.Float64s(xs)
			return
		}
		varying |= floatKey(x) ^ k0
	}
	if varying == 0 {
		return
	}
	// Start at the top byte in which any two keys differ.
	flagSort(xs, uint(bits.Len64(varying)-1)&^7)
}

// floatKey maps a float's bits to an unsigned key whose order is the float
// order: negative values have every bit flipped, the rest only the sign bit.
func floatKey(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// flagSort partitions xs in place by the key byte at shift (cycle-leader
// permutation into counted buckets), then sorts each bucket by the bytes
// below it.
func flagSort(xs []float64, shift uint) {
	var count [256]int
	for {
		for _, x := range xs {
			count[byte(floatKey(x)>>shift)]++
		}
		if count[byte(floatKey(xs[0])>>shift)] < len(xs) {
			break
		}
		// Every key shares this byte: nothing to move at this level.
		if shift == 0 {
			return
		}
		shift -= 8
		count = [256]int{}
	}
	var next [256]int
	off := 0
	for b, c := range count {
		next[b] = off
		off += c
	}
	end := 0
	for b, c := range count {
		end += c
		for next[b] < end {
			x := xs[next[b]]
			for d := int(byte(floatKey(x) >> shift)); d != b; d = int(byte(floatKey(x) >> shift)) {
				x, xs[next[d]] = xs[next[d]], x
				next[d]++
			}
			xs[next[b]] = x
			next[b]++
		}
	}
	if shift == 0 {
		return
	}
	end = 0
	for _, c := range count {
		start := end
		end += c
		if c < radixMin {
			sort.Float64s(xs[start:end])
		} else {
			flagSort(xs[start:end], shift-8)
		}
	}
}
