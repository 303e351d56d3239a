package fault

import (
	"math/bits"

	"github.com/deeppower/deeppower/internal/sim"
)

// The health window buckets latencies on a fixed log-linear layout: values
// below subBuckets get a bucket each, and every octave [2^e, 2^(e+1)) above
// that is split into subBuckets equal slices. The layout covers every
// int64 >= 0 (non-positive values share bucket 0), and the map is monotone:
// a < b implies bucketOf(a) <= bucketOf(b).
const (
	subBits    = 5
	subBuckets = 1 << subBits
	numGroups  = 64 - subBits // group g holds buckets [g<<subBits, (g+1)<<subBits)
	numBuckets = numGroups << subBits
)

// minRing is the ring's first capacity; it must be a power of two.
const minRing = 64

// bucketOf returns v's bucket.
func bucketOf(v sim.Time) int {
	if v < subBuckets {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - 1 // e >= subBits
	return (e-subBits+1)<<subBits | int(uint64(v)>>(e-subBits))&(subBuckets-1)
}

// guardSample is one completion in the health window. next threads the
// samples of one bucket into a FIFO chain, in arrival order.
type guardSample struct {
	at      sim.Time
	latency sim.Time
	next    int64 // sequence number of the bucket's next sample
}

// healthWindow is the guard's sliding window of completions, kept so that
// its exact timeout rate and any order statistic of its latencies cost O(1)
// amortised per completion plus, per query, the population of the one bucket
// that holds the asked-for rank.
//
// Samples get consecutive sequence numbers; the live ones, [head, tail), sit
// at ring[seq & (len(ring)-1)], so growing the ring moves no chain link.
// Eviction is oldest first, and every bucket's chain is in arrival order, so
// the sample leaving the window is always the head of its bucket's chain.
type healthWindow struct {
	ring       []guardSample
	head, tail int64
	sla        sim.Time // a sample with latency > sla is a timeout
	timeouts   int
	groups     [numGroups]int32 // samples per group of buckets
	counts     [numBuckets]int32
	first      [numBuckets]int64 // sequence numbers of each chain's ends
	last       [numBuckets]int64
	scratch    []sim.Time // kth's gather buffer, reused across queries
}

// reset empties the window and sets the timeout threshold.
func (w *healthWindow) reset(sla sim.Time) {
	w.sla = sla
	w.clear()
}

// clear empties the window. The ring and the gather buffer are kept.
func (w *healthWindow) clear() {
	w.head = w.tail
	w.timeouts = 0
	w.groups = [numGroups]int32{}
	w.counts = [numBuckets]int32{}
}

func (w *healthWindow) len() int { return int(w.tail - w.head) }

// add appends a completion at time at with the given latency.
func (w *healthWindow) add(at, latency sim.Time) {
	if w.len() == len(w.ring) {
		w.grow()
	}
	mask := int64(len(w.ring) - 1)
	s := w.tail
	w.tail++
	w.ring[s&mask] = guardSample{at: at, latency: latency}
	if latency > w.sla {
		w.timeouts++
	}
	b := bucketOf(latency)
	if w.counts[b] == 0 {
		w.first[b] = s
	} else {
		w.ring[w.last[b]&mask].next = s
	}
	w.last[b] = s
	w.counts[b]++
	w.groups[b>>subBits]++
}

// grow doubles the ring, placing every live sample at its slot in the new
// one.
func (w *healthWindow) grow() {
	ring := make([]guardSample, max(2*len(w.ring), minRing))
	oldMask, mask := int64(len(w.ring)-1), int64(len(ring)-1)
	for s := w.head; s < w.tail; s++ {
		ring[s&mask] = w.ring[s&oldMask]
	}
	w.ring = ring
}

// prune evicts samples from the front of the window while they completed
// before cut.
func (w *healthWindow) prune(cut sim.Time) {
	mask := int64(len(w.ring) - 1)
	for w.head < w.tail {
		x := &w.ring[w.head&mask]
		if x.at >= cut {
			return
		}
		if x.latency > w.sla {
			w.timeouts--
		}
		b := bucketOf(x.latency)
		w.first[b] = x.next
		w.counts[b]--
		w.groups[b>>subBits]--
		w.head++
	}
}

// kth returns the k-th smallest latency in the window (0-indexed,
// 0 <= k < len). It walks the counts down from the top to the bucket that
// holds rank k, gathers that bucket's chain and selects within it: because
// bucketOf is monotone, every sample in a lower bucket ranks below every
// sample in that bucket, and every sample in a higher one above.
func (w *healthWindow) kth(k int) sim.Time {
	above := w.len() - 1 - k // samples ranked above k
	g := numGroups - 1
	for ; int(w.groups[g]) <= above; g-- {
		above -= int(w.groups[g])
	}
	b := g<<subBits | (subBuckets - 1)
	for ; int(w.counts[b]) <= above; b-- {
		above -= int(w.counts[b])
	}
	n := int(w.counts[b])
	mask := int64(len(w.ring) - 1)
	xs := w.scratch[:0]
	for s, i := w.first[b], 0; i < n; i++ {
		x := &w.ring[s&mask]
		xs = append(xs, x.latency)
		s = x.next
	}
	w.scratch = xs
	return quickSelect(xs, n-1-above)
}

// quickSelect returns the k-th smallest element (0-indexed) of a, which it
// partially reorders in place.
func quickSelect(a []sim.Time, k int) sim.Time {
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := a[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return a[k]
}
