// Package rl implements the deep reinforcement-learning algorithms the paper
// uses: DDPG (the DeepPower agent, §4.5) and the three comparison algorithms
// of Table 2 — DQN, DDQN and SAC — on top of the internal/nn library.
package rl

import (
	"fmt"

	"github.com/deeppower/deeppower/internal/sim"
)

// Transition is one experience tuple (s, a, r, s').
type Transition struct {
	State     []float64
	Action    []float64
	Reward    float64
	NextState []float64
	// Done marks terminal transitions (no bootstrapping). The paper's
	// control task is continuing, so Done is normally false.
	Done bool
}

// Replay is the experience replay pool of Fig. 3 (⑥): a fixed-capacity ring
// from which training samples minibatches uniformly.
//
// Slot i lives at blocks[i>>replayBlockShift][i&replayBlockMask]. A block is
// allocated when its first slot is written and never moves, so a pool that
// is never pushed to (inference-only agents) owns no transition memory and a
// short training pays only for the blocks it reached.
type Replay struct {
	blocks [][]Transition
	n      int // stored transitions: slots [0, n) are live
	cap    int
	next   int
	full   bool
	pushed uint64
	rng    *sim.RNG
}

// A block holds 1024 slots (× 88 B = 88 KiB); a power of two, so locating a
// slot is a shift and a mask.
const (
	replayBlockShift = 10
	replayBlockSize  = 1 << replayBlockShift
	replayBlockMask  = replayBlockSize - 1
)

// NewReplay returns a pool holding up to capacity transitions.
func NewReplay(capacity int, rng *sim.RNG) *Replay {
	if capacity <= 0 {
		panic(fmt.Sprintf("rl: non-positive replay capacity %d", capacity))
	}
	return &Replay{cap: capacity, rng: rng}
}

// slot returns stored slot i.
func (rp *Replay) slot(i int) *Transition {
	return &rp.blocks[i>>replayBlockShift][i&replayBlockMask]
}

// appendSlot stores t in slot n, allocating the slot's block (clipped to the
// pool's capacity) when n is the block's first slot.
func (rp *Replay) appendSlot(t Transition) {
	if rp.n&replayBlockMask == 0 {
		rp.blocks = append(rp.blocks, make([]Transition, min(replayBlockSize, rp.cap-rp.n)))
	}
	*rp.slot(rp.n) = t
	rp.n++
}

// Push stores a transition, evicting the oldest when full.
func (rp *Replay) Push(t Transition) {
	rp.pushed++
	if rp.n < rp.cap {
		rp.appendSlot(t)
		return
	}
	*rp.slot(rp.next) = t
	rp.next = (rp.next + 1) % rp.cap
	rp.full = true
}

// Len reports how many transitions are stored.
func (rp *Replay) Len() int { return rp.n }

// Pushed reports the pool's write cursor: the total number of transitions
// ever pushed, including ones since evicted. Shared-pool writers (the
// vectorized trainer interleaves E environments into one pool) use it as
// their experience-throughput counter; Pushed() mod cap locates the ring's
// next eviction slot once the pool is full.
func (rp *Replay) Pushed() uint64 { return rp.pushed }

// At returns the i-th oldest stored transition (0 = next to be evicted).
// It exposes the ring in logical age order for tests that pin the shared
// write-cursor interleave; sampling paths use SampleInto.
func (rp *Replay) At(i int) Transition {
	if i < 0 || i >= rp.n {
		panic(fmt.Sprintf("rl: replay index %d out of %d", i, rp.n))
	}
	if !rp.full {
		return *rp.slot(i)
	}
	return *rp.slot((rp.next + i) % rp.cap)
}

// SampleInto fills dst with transitions drawn uniformly with replacement,
// without allocating: trainers reuse one minibatch buffer across updates.
// It draws exactly len(dst) RNG values in the same order as Sample, so the
// two are interchangeable under a fixed seed. Panics when the pool is
// empty.
func (rp *Replay) SampleInto(dst []Transition) {
	if rp.n == 0 {
		panic("rl: sampling from empty replay pool")
	}
	for i := range dst {
		dst[i] = *rp.slot(rp.rng.Intn(rp.n))
	}
}

// Sample draws n transitions uniformly with replacement into a fresh slice.
// Hot paths should prefer SampleInto.
func (rp *Replay) Sample(n int) []Transition {
	out := make([]Transition, n)
	rp.SampleInto(out)
	return out
}
