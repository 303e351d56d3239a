package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/deeppower/deeppower/internal/sim"
)

// state is a test shorthand for a healthy shard snapshot.
func state(id, cores, queue, busy int, eff float64) ShardState {
	return ShardState{
		ID: id, Cores: cores, Online: cores,
		Queue: queue, Busy: busy, Share: 1, EffCost: eff,
	}
}

func TestNewBalancer(t *testing.T) {
	for _, name := range BalancerNames() {
		b, err := NewBalancer(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.Name() != name {
			t.Errorf("NewBalancer(%q).Name() = %q", name, b.Name())
		}
	}
	if _, err := NewBalancer("nope"); err == nil {
		t.Error("unknown balancer name did not error")
	}
}

// withPending returns shards with pending[i] folded into shard i's queue:
// Backlog sums the two, so a balancer routing one arrival on the folded
// snapshot decides what it would after pending[i] arrivals went to shard i.
func withPending(shards []ShardState, pending []int) []ShardState {
	out := append([]ShardState(nil), shards...)
	for i := range out {
		out[i].Queue += pending[i]
	}
	return out
}

// route runs one Route call over k arrivals and returns the destinations.
func route(b Balancer, shards []ShardState, k int) []int {
	at := make([]sim.Time, k)
	for j := range at {
		at[j] = sim.Time(j)
	}
	dst := make([]int, k)
	b.Route(at, shards, dst)
	return dst
}

// refJSQ is the per-arrival join-shortest-queue rule, recomputing every
// backlog for every arrival: the reference JSQ.Route must match.
func refJSQ(shards []ShardState, k int) []int {
	pending := make([]int, len(shards))
	out := make([]int, k)
	for j := range out {
		best, bestLen := -1, 0
		for i := range shards {
			if n := shards[i].Backlog(pending[i]); best == -1 || n < bestLen {
				best, bestLen = i, n
			}
		}
		out[j] = best
		if best >= 0 {
			pending[best]++
		}
	}
	return out
}

// refPicks is k successive PowerAware.Pick calls, pending counted up after
// each: the reference PowerAware.Route must match.
func refPicks(b *PowerAware, shards []ShardState, k int) []int {
	pending := make([]int, len(shards))
	out := make([]int, k)
	for j := range out {
		out[j] = b.Pick(0, shards, pending)
		if out[j] >= 0 {
			pending[out[j]]++
		}
	}
	return out
}

// TestBalancerPickTable drives every balancer through the shared edge cases
// (empty fleet, single shard, saturation, ties) plus per-balancer routing
// expectations: the next arrival Route assigns after pending[i] arrivals
// went to shard i, and for power-aware the same answer from Pick.
func TestBalancerPickTable(t *testing.T) {
	saturated := []ShardState{
		state(0, 2, 10, 2, 8), state(1, 2, 10, 2, 8), state(2, 2, 10, 2, 8),
	}
	cases := []struct {
		name     string
		balancer string
		shards   []ShardState
		pending  []int
		want     int
	}{
		{"empty fleet/rr", RoundRobinName, nil, nil, -1},
		{"empty fleet/jsq", JSQName, nil, nil, -1},
		{"empty fleet/power", PowerAwareName, nil, nil, -1},

		{"single shard/rr", RoundRobinName, []ShardState{state(0, 2, 5, 2, 8)}, []int{0}, 0},
		{"single shard/jsq", JSQName, []ShardState{state(0, 2, 5, 2, 8)}, []int{0}, 0},
		{"single shard/power", PowerAwareName, []ShardState{state(0, 2, 5, 2, 8)}, []int{0}, 0},

		// All shards equally saturated: deterministic lowest-index tie-break.
		{"saturated tie/jsq", JSQName, saturated, []int{0, 0, 0}, 0},
		{"saturated tie/power", PowerAwareName, saturated, []int{0, 0, 0}, 0},

		// JSQ routes to the strictly shortest backlog, counting same-epoch
		// pending routes.
		{"jsq shortest", JSQName,
			[]ShardState{state(0, 2, 4, 2, 8), state(1, 2, 1, 2, 8), state(2, 2, 2, 2, 8)},
			[]int{0, 0, 0}, 1},
		{"jsq pending breaks snapshot", JSQName,
			[]ShardState{state(0, 2, 1, 0, 8), state(1, 2, 2, 0, 8)},
			[]int{4, 0}, 1},

		// Power-aware prefers the efficient shard at equal load, and an
		// offline shard only when everything is down.
		{"power prefers efficient", PowerAwareName,
			[]ShardState{state(0, 2, 1, 1, 12), state(1, 2, 1, 1, 8)},
			[]int{0, 0}, 1},
		{"power load beats efficiency", PowerAwareName,
			[]ShardState{state(0, 2, 20, 2, 8), state(1, 2, 0, 0, 12)},
			[]int{0, 0}, 1},
		{"power avoids offline", PowerAwareName,
			[]ShardState{
				{ID: 0, Cores: 2, Online: 0, Share: 1, EffCost: 8},
				{ID: 1, Cores: 2, Online: 2, Queue: 5, Busy: 2, Share: 1, EffCost: 12},
			},
			[]int{0, 0}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := NewBalancer(tc.balancer)
			if err != nil {
				t.Fatal(err)
			}
			if got := route(b, withPending(tc.shards, tc.pending), 1)[0]; got != tc.want {
				t.Errorf("Route = %d, want %d", got, tc.want)
			}
			if pa, ok := b.(*PowerAware); ok {
				if got := pa.Pick(0, tc.shards, tc.pending); got != tc.want {
					t.Errorf("Pick = %d, want %d", got, tc.want)
				}
			}
		})
	}
}

// TestJSQRouteMatchesReference holds JSQ.Route's cached, counted-up
// backlogs to the per-arrival argmin that recomputes them: on random
// snapshots with dense ties, over fleets of power-of-two and other sizes up
// to 100 shards, every destination of a k-arrival call matches, and equal
// backlogs go to the lowest index.
func TestJSQRouteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := []int{1, 2, 3, 5, 7, 8, 17, 100}
	for trial := 0; trial < 200; trial++ {
		shards := make([]ShardState, sizes[trial%len(sizes)])
		for i := range shards {
			shards[i] = state(i, 1+rng.Intn(4), rng.Intn(4), rng.Intn(3), 8)
		}
		k := rng.Intn(40 + 3*len(shards))
		b := &JSQ{}
		got, want := route(b, shards, k), refJSQ(shards, k)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d: arrival %d routed to %d, reference %d (%v)", trial, j, got[j], want[j], shards)
			}
		}
		// A second call starts from the snapshot again, not from the first
		// call's counts.
		if again := route(b, shards, k); fmt.Sprint(again) != fmt.Sprint(want) {
			t.Fatalf("trial %d: second call %v, reference %v", trial, again, want)
		}
	}
	// Equal backlogs fill lowest index first, one round at a time.
	eq := []ShardState{state(0, 2, 1, 1, 8), state(1, 2, 1, 1, 8), state(2, 2, 1, 1, 8)}
	if got := fmt.Sprint(route(&JSQ{}, eq, 7)); got != "[0 1 2 0 1 2 0]" {
		t.Errorf("tie-break order %s, want [0 1 2 0 1 2 0]", got)
	}
}

// TestRoundRobinFairness is the round-robin contract: after any number of
// routed arrivals, per-shard counts differ by at most one, and the cursor
// carries over between Route calls — arrival n overall goes to shard n mod
// len(shards), however the arrivals are split into epochs.
func TestRoundRobinFairness(t *testing.T) {
	shards := []ShardState{state(0, 2, 0, 0, 8), state(1, 2, 0, 0, 8), state(2, 2, 0, 0, 8)}
	b := &RoundRobin{}
	counts := make([]int, len(shards))
	n := 0
	for k := 0; n < 100; k = (k + 1) % 5 {
		for _, i := range route(b, shards, k) {
			if i != n%len(shards) {
				t.Fatalf("arrival %d: routed to %d, want %d", n, i, n%len(shards))
			}
			n++
			counts[i]++
			min, max := counts[0], counts[0]
			for _, c := range counts[1:] {
				if c < min {
					min = c
				}
				if c > max {
					max = c
				}
			}
			if max-min > 1 {
				t.Fatalf("after %d arrivals counts diverge: %v", n, counts)
			}
		}
	}
}

// TestPickDeterminism: identical inputs into fresh balancers produce
// identical routing sequences (the property cluster.Run's serial routing
// leans on), over several Route calls of uneven size.
func TestPickDeterminism(t *testing.T) {
	shards := []ShardState{
		state(0, 2, 3, 1, 8), state(1, 4, 1, 2, 10), state(2, 1, 0, 1, 12),
	}
	for _, name := range BalancerNames() {
		a, _ := NewBalancer(name)
		b, _ := NewBalancer(name)
		for k := 0; k < 12; k++ {
			ra, rb := route(a, shards, k), route(b, shards, k)
			for j := range ra {
				if ra[j] != rb[j] {
					t.Fatalf("%s: call %d arrival %d diverged: %d vs %d", name, k, j, ra[j], rb[j])
				}
			}
		}
	}
}

// TestPowerAwareHostileStates feeds non-finite telemetry straight into the
// scoring function: picks and routes must stay in range whatever the
// snapshot claims.
func TestPowerAwareHostileStates(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := [][]ShardState{
		{{ID: 0, Cores: 2, Online: 2, EffCost: nan, Share: nan}},
		{{ID: 0, Cores: 0, Online: 0, EffCost: inf, Share: -1}},
		{
			{ID: 0, Cores: 2, Online: 2, Queue: -5, Busy: -1, EffCost: -inf, Share: 0},
			{ID: 1, Cores: 2, Online: 2, EffCost: inf, Share: inf},
		},
	}
	b := &PowerAware{}
	for i, shards := range cases {
		pending := make([]int, len(shards))
		if got := b.Pick(0, shards, pending); got < 0 || got >= len(shards) {
			t.Errorf("case %d: Pick = %d out of range [0,%d)", i, got, len(shards))
		}
		for j, got := range route(b, shards, 5) {
			if got < 0 || got >= len(shards) {
				t.Errorf("case %d: Route arrival %d = %d out of range [0,%d)", i, j, got, len(shards))
			}
		}
	}
}

// FuzzPowerAwarePick fuzzes the power-aware scoring function with raw bit
// patterns (NaNs, infinities, negative counts included): it must never panic
// and must always return a valid shard index for a non-empty fleet, and
// Route over k arrivals must return exactly the shards k successive Pick
// calls return, with pending counted up after each. The winner tree Route
// keeps its costs in must also agree with a scan in index order on raw
// cost bit patterns, NaN included, as leaves change one at a time.
func FuzzPowerAwarePick(f *testing.F) {
	f.Add(uint8(3), int64(1), uint64(0x3FF0000000000000), uint64(0x4000000000000000), int64(2), int64(1), uint64(0))
	f.Add(uint8(1), int64(-4), uint64(0x7FF8000000000000), uint64(0xFFF0000000000000), int64(0), int64(-1), uint64(0x7FF0000000000000))
	f.Add(uint8(8), int64(1000), uint64(0), uint64(0x0010000000000000), int64(-3), int64(64), uint64(0x4030000000000000))
	// Healthy fleets of 128 and 120 shards: load, share and efficiency all
	// steer, so Route must recompute each picked shard's cost to keep up
	// with successive Picks.
	f.Add(uint8(0xFF), int64(1), uint64(0x4020000000000000), uint64(0x3FF0000000000000), int64(4), int64(4), uint64(0x3FD0000000000000))
	f.Add(uint8(0xF7), int64(3), uint64(0x4028000000000000), uint64(0x3FE8000000000000), int64(2), int64(9), uint64(0))
	// Fleets of 1, 3, 17 and 100 shards under hostile snapshots: NaN and
	// infinite efficiency and share fields, and queues whose per-shard
	// multiples wrap in sign over the smallest share, so routing costs of
	// +Inf and -Inf mix; the tree check meets NaN costs too.
	f.Add(uint8(0), int64(5), uint64(0x7FF8000000000000), uint64(0x7FF0000000000000), int64(2), int64(2), uint64(0))
	f.Add(uint8(2), int64(1<<62), uint64(0x7FF0000000000000), uint64(1), int64(1), int64(1), uint64(0x7FF8000000000001))
	f.Add(uint8(16), int64(1<<61), uint64(0xFFF0000000000000), uint64(1), int64(3), int64(0), uint64(0x4000000000000000))
	f.Add(uint8(99), int64(-(1 << 62)), uint64(0x7FF8000000000000), uint64(0xFFF0000000000000), int64(4), int64(2), uint64(0x3FD0000000000000))
	f.Add(uint8(99), int64(3), uint64(0x4020000000000000), uint64(0x3FF0000000000000), int64(4), int64(40), uint64(0))
	f.Fuzz(func(t *testing.T, n uint8, queue int64, effBits, shareBits uint64, cores, online int64, weightBits uint64) {
		shards := make([]ShardState, int(n%128)+1)
		pending := make([]int, len(shards))
		for i := range shards {
			k := int64(i)
			shards[i] = ShardState{
				ID:      i,
				Cores:   int(cores + k),
				Online:  int(online - k),
				Queue:   int(queue * (k + 1)),
				Busy:    int(queue - k),
				Share:   math.Float64frombits(shareBits + uint64(i)),
				EffCost: math.Float64frombits(effBits ^ uint64(i)),
			}
			pending[i] = int(queue) >> uint(i%4)
		}
		b := &PowerAware{EnergyWeight: math.Float64frombits(weightBits)}
		got := b.Pick(0, shards, pending)
		if got < 0 || got >= len(shards) {
			t.Fatalf("Pick = %d out of range [0,%d)", got, len(shards))
		}
		k := 1 + 2*len(shards)
		routed, want := route(b, shards, k), refPicks(b, shards, k)
		for j := range want {
			if routed[j] != want[j] {
				t.Fatalf("Route arrival %d = %d, successive Pick %d (routed %v, picks %v)",
					j, routed[j], want[j], routed, want)
			}
		}

		var tree winnerTree[float64]
		costs := tree.reset(len(shards))
		for i := range costs {
			costs[i] = math.Float64frombits(effBits ^ shareBits*uint64(i))
		}
		tree.build()
		for j := 0; j < k; j++ {
			want, wantCost := -1, math.Inf(1)
			for i, c := range costs {
				if lower(c, want, wantCost) {
					want, wantCost = i, c
				}
			}
			if got := tree.winner(); got != want {
				t.Fatalf("step %d: tree winner %d, scan %d over %v", j, got, want, costs)
			}
			i := int((weightBits + uint64(j)*effBits) % uint64(len(costs)))
			tree.set(i, math.Float64frombits(weightBits^uint64(j)*effBits))
		}
	})
}
