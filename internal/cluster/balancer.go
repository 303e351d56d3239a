package cluster

import (
	"fmt"
	"math"
	"slices"

	"github.com/deeppower/deeppower/internal/sim"
)

// ShardState is the per-shard telemetry snapshot the balancer and the global
// tier act on. Snapshots are taken at control-epoch boundaries — the fleet
// tier sees the world with up to one epoch of staleness, which is exactly
// what makes concurrent shard advancement deterministic: no routing decision
// ever depends on mid-epoch state.
type ShardState struct {
	// ID is the shard index.
	ID int
	// Cores is the shard's worker-core count.
	Cores int
	// Online is how many cores accepted dispatches at the snapshot (cores
	// can be down under a fault campaign).
	Online int
	// Queue is the number of queued (undispatched) requests.
	Queue int
	// Busy is the number of cores processing a request.
	Busy int
	// Share is the global tier's request-share weight for this shard
	// (fleet mean 1; balancers that honor shares divide load by it).
	Share float64
	// FreqCapGHz is the global tier's power-budget frequency ceiling
	// currently enforced on the shard (0 = uncapped).
	FreqCapGHz float64
	// EffCost is the shard's marginal-energy proxy: the power one active
	// core draws at the ladder maximum (watts). Heterogeneous fleets have
	// different per-shard power models, so this is the signal that lets a
	// power-aware balancer prefer efficient machines.
	EffCost float64
	// PowerW is the shard's average socket power over the last epoch.
	PowerW float64
	// WindowTimeoutRate is timeouts/completions over the last epoch
	// (0 when the shard completed nothing).
	WindowTimeoutRate float64
}

// Backlog is the shard's apparent outstanding work at routing time: queued
// plus in-service requests from the snapshot, plus everything already routed
// there in the current epoch.
func (st *ShardState) Backlog(pending int) int {
	return st.Queue + st.Busy + pending
}

// Balancer routes fleet-level requests to shards. Implementations must be
// deterministic pure functions of (at, shards) and their own internal routing
// state: the cluster calls Route serially, once per epoch, so serial and
// parallel fleet runs route identically.
type Balancer interface {
	// Name identifies the balancer in artifacts.
	Name() string
	// Route assigns the coming epoch's arrivals, in arrival order: dst[j] is
	// the destination of the request arriving at at[j] (len(dst) >=
	// len(at)). shards holds the last epoch-boundary snapshots, and each
	// assignment counts as pending on its shard for every later arrival of
	// the call (see ShardState.Backlog). Every dst[j] must be an index in
	// [0, len(shards)) — or -1 for an empty fleet.
	Route(at []sim.Time, shards []ShardState, dst []int)
}

// Balancer registry names.
const (
	RoundRobinName = "round-robin"
	JSQName        = "jsq"
	PowerAwareName = "power-aware"
)

// BalancerNames lists the built-in balancers in comparison order.
func BalancerNames() []string {
	return []string{RoundRobinName, JSQName, PowerAwareName}
}

// NewBalancer constructs a fresh built-in balancer by name. Balancers carry
// routing state (the round-robin cursor), so every campaign needs its own.
func NewBalancer(name string) (Balancer, error) {
	switch name {
	case RoundRobinName:
		return &RoundRobin{}, nil
	case JSQName:
		return &JSQ{}, nil
	case PowerAwareName:
		return &PowerAware{}, nil
	}
	return nil, fmt.Errorf("cluster: unknown balancer %q", name)
}

// RoundRobin cycles through shards in index order, ignoring all telemetry.
// Its fairness contract: after n picks, per-shard counts differ by at most
// one.
type RoundRobin struct {
	next int
}

// Name implements Balancer.
func (b *RoundRobin) Name() string { return RoundRobinName }

// Route implements Balancer.
func (b *RoundRobin) Route(at []sim.Time, shards []ShardState, dst []int) {
	for j := range at {
		if len(shards) == 0 {
			dst[j] = -1
			continue
		}
		if b.next >= len(shards) {
			b.next = 0
		}
		dst[j] = b.next
		b.next++
	}
}

// JSQ is join-shortest-queue over the epoch-boundary view: it routes to the
// shard with the smallest backlog (snapshot queue + busy + already routed
// this epoch), breaking ties toward the lowest index. It never routes to a
// shard whose backlog strictly exceeds another's.
type JSQ struct {
	backlog winnerTree[int] // per-shard backlog within the current Route call
}

// Name implements Balancer.
func (b *JSQ) Name() string { return JSQName }

// Route implements Balancer. Each shard's backlog is read from the snapshot
// once and then counted up by one per request routed there.
func (b *JSQ) Route(at []sim.Time, shards []ShardState, dst []int) {
	backlog := b.backlog.reset(len(shards))
	for i := range shards {
		backlog[i] = shards[i].Backlog(0)
	}
	b.backlog.build()
	for j := range at {
		best := b.backlog.winner()
		dst[j] = best
		if best >= 0 {
			b.backlog.set(best, backlog[best]+1)
		}
	}
}

// PowerAware routes on a cost blending per-core load against the shard's
// marginal energy, honoring the global tier's request shares: efficient,
// lightly loaded, well-shared shards win. With EnergyWeight 0 and uniform
// shares it degenerates to per-core-normalized JSQ.
type PowerAware struct {
	// EnergyWeight scales the (dimensionless, fleet-min-normalized)
	// marginal-energy term against the per-core load term. Zero means the
	// default; use NoEnergyTerm for a pure load balancer.
	EnergyWeight float64
	// NoEnergyTerm disables the energy term entirely.
	NoEnergyTerm bool

	// costs and pending are each shard's cost and routing count within the
	// current Route call.
	costs   winnerTree[float64]
	pending []int
}

// DefaultEnergyWeight is the routing cost's energy-vs-load trade-off used
// when PowerAware.EnergyWeight is zero. It is deliberately small: under the
// global tier, efficiency-proportional shares already steer the bulk of the
// traffic toward efficient machines, so the balancer's energy term only
// needs to break near-ties. Large weights starve inefficient shards until
// their backlog forces high-frequency catch-up — and the voltage-squared
// cost of those catch-up bursts exceeds what the generation gap saves (a
// 100-shard sweep measured w=2 *above* round-robin fleet energy, w≤1 below
// it, best near 0.25).
const DefaultEnergyWeight = 0.25

// offlineCost dominates any plausible load/energy cost so fully offline
// shards are picked only when every shard is down.
const offlineCost = 1e9

func (b *PowerAware) weight() float64 {
	if b.NoEnergyTerm {
		return 0
	}
	if b.EnergyWeight > 0 && !math.IsInf(b.EnergyWeight, 0) && !math.IsNaN(b.EnergyWeight) {
		return b.EnergyWeight
	}
	return DefaultEnergyWeight
}

// Name implements Balancer.
func (b *PowerAware) Name() string { return PowerAwareName }

// Pick returns the destination shard for one request, given pending[i]
// requests already routed to shard i this epoch: the choice Route makes for
// an arrival after those. It is total on arbitrary (even non-finite)
// snapshot values: any shard whose cost fails to evaluate finitely is
// considered last, and a non-empty fleet always yields a valid index; an
// empty one yields -1.
func (b *PowerAware) Pick(_ sim.Time, shards []ShardState, pending []int) int {
	if len(shards) == 0 {
		return -1
	}
	best, _ := b.scan(shards, pending, 0, len(shards), minEffCost(shards))
	return fallback(best)
}

// Route implements Balancer. It evaluates every shard's cost once, and after
// each assignment only the picked shard's, keeping the costs in a winner
// tree: an epoch of k arrivals over n shards costs n+k cost evaluations and
// k·log n comparisons instead of k·n evaluations.
func (b *PowerAware) Route(at []sim.Time, shards []ShardState, dst []int) {
	if len(shards) == 0 {
		for j := range at {
			dst[j] = -1
		}
		return
	}
	n, minEff := len(shards), minEffCost(shards)
	costs := b.costs.reset(n)
	b.pending = slices.Grow(b.pending[:0], n)[:n]
	clear(b.pending)
	for i := range shards {
		_, costs[i] = b.scan(shards, b.pending, i, i+1, minEff)
	}
	b.costs.build()
	for j := range at {
		best := fallback(b.costs.winner())
		dst[j] = best
		b.pending[best]++
		_, c := b.scan(shards, b.pending, best, best+1, minEff)
		b.costs.set(best, c)
	}
}

// minEffCost is the fleet's best (lowest finite, positive) marginal cost,
// the normalizer that makes the energy term dimensionless and zero-based;
// +Inf when no shard has one.
func minEffCost(shards []ShardState) float64 {
	minEff := math.Inf(1)
	for i := range shards {
		if e := shards[i].EffCost; e > 0 && !math.IsInf(e, 1) && e < minEff {
			minEff = e
		}
	}
	return minEff
}

// scan evaluates the routing cost of shards lo..hi-1, with pending[i]
// requests already routed to shard i this epoch, under the fleet normalizer
// minEff. It returns the lowest-index shard of least cost in the range (-1
// when every cost was NaN) and the cost of shard hi-1, so one call both
// answers Pick and refreshes one shard's cached cost in Route.
func (b *PowerAware) scan(shards []ShardState, pending []int, lo, hi int, minEff float64) (best int, last float64) {
	w := b.weight()
	best = -1
	bestCost := math.Inf(1)
	for i := lo; i < hi; i++ {
		st := &shards[i]
		cores := st.Online
		if cores <= 0 {
			cores = st.Cores
		}
		if cores <= 0 {
			cores = 1
		}
		load := float64(st.Backlog(pending[i])) / float64(cores)
		share := st.Share
		if !(share > 0) || math.IsInf(share, 0) || math.IsNaN(share) {
			share = minShare
		}
		cost := load / share
		if w > 0 && !math.IsInf(minEff, 1) && st.EffCost > 0 && !math.IsInf(st.EffCost, 1) {
			cost += w * (st.EffCost/minEff - 1)
		}
		if st.Online == 0 && st.Cores > 0 {
			cost += offlineCost
		}
		if lower(cost, best, bestCost) {
			best, bestCost = i, cost
		}
		last = cost
	}
	return best, last
}

// lower reports whether a shard of cost c replaces the running argmin best
// (-1 for none yet) of cost bestCost. Scanned in index order it finds the
// lowest-index shard of least cost; NaN costs (hostile snapshot values)
// compare false and are skipped.
func lower(c float64, best int, bestCost float64) bool {
	return c < bestCost || best == -1 && !math.IsNaN(c)
}

// fallback maps an argmin that found no shard — every cost was NaN — to the
// lowest index, so the fleet keeps serving.
func fallback(best int) int {
	if best == -1 {
		return 0
	}
	return best
}

// winnerTree keeps one cost per shard and answers the argmin a scan in index
// order finds — the lowest index of least cost, a NaN cost never winning —
// in O(1), after a change to one cost in O(log n). winner is -1 when no
// cost qualifies (an empty fleet, or every cost NaN).
type winnerTree[C int | float64] struct {
	cost []C
	// node is a complete binary tree over a power-of-two count of leaves:
	// node[1] is the root, node[k]'s children are node[2k] and node[2k+1],
	// and leaf i is node[len(node)/2+i]. Each holds its subtree's winner.
	node []int
}

// reset sizes the tree for n costs and returns them for the caller to fill
// before build.
func (t *winnerTree[C]) reset(n int) []C {
	leaves := 1
	for leaves < n {
		leaves <<= 1
	}
	t.cost = slices.Grow(t.cost[:0], n)[:n]
	t.node = slices.Grow(t.node[:0], 2*leaves)[:2*leaves]
	return t.cost
}

// build computes every node from the costs.
func (t *winnerTree[C]) build() {
	leaves := len(t.node) / 2
	for i := range leaves {
		t.node[leaves+i] = t.leaf(i)
	}
	for k := leaves - 1; k >= 1; k-- {
		t.node[k] = t.better(t.node[2*k], t.node[2*k+1])
	}
}

// set changes cost i and recomputes its leaf's ancestors.
func (t *winnerTree[C]) set(i int, c C) {
	t.cost[i] = c
	k := len(t.node)/2 + i
	t.node[k] = t.leaf(i)
	for k >>= 1; k >= 1; k >>= 1 {
		t.node[k] = t.better(t.node[2*k], t.node[2*k+1])
	}
}

// winner is the lowest index of least cost, -1 for none.
func (t *winnerTree[C]) winner() int { return t.node[1] }

// leaf is shard i's own candidacy: i, or -1 for padding and NaN costs.
func (t *winnerTree[C]) leaf(i int) int {
	if i >= len(t.cost) || t.cost[i] != t.cost[i] {
		return -1
	}
	return i
}

// better is the winner of two subtrees, a's all below b's in index: b only
// when its cost is strictly lower, so ties go to the lower index.
func (t *winnerTree[C]) better(a, b int) int {
	if b < 0 || a >= 0 && !(t.cost[b] < t.cost[a]) {
		return a
	}
	return b
}
