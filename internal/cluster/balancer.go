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
	backlog []int // per-shard backlog within the current Route call
}

// Name implements Balancer.
func (b *JSQ) Name() string { return JSQName }

// Route implements Balancer. Each shard's backlog is read from the snapshot
// once and then counted up by one per request routed there.
func (b *JSQ) Route(at []sim.Time, shards []ShardState, dst []int) {
	b.backlog = b.backlog[:0]
	for i := range shards {
		b.backlog = append(b.backlog, shards[i].Backlog(0))
	}
	for j := range at {
		best, bestLen := -1, 0
		for i, n := range b.backlog {
			if best == -1 || n < bestLen {
				best, bestLen = i, n
			}
		}
		dst[j] = best
		if best >= 0 {
			b.backlog[best]++
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
	costs   []float64
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
// each assignment only the picked shard's, so an epoch of k arrivals over n
// shards costs n+k cost evaluations and k scans of n cached floats instead
// of k·n evaluations.
func (b *PowerAware) Route(at []sim.Time, shards []ShardState, dst []int) {
	if len(shards) == 0 {
		for j := range at {
			dst[j] = -1
		}
		return
	}
	n, minEff := len(shards), minEffCost(shards)
	b.costs = slices.Grow(b.costs[:0], n)[:n]
	b.pending = slices.Grow(b.pending[:0], n)[:n]
	clear(b.pending)
	for i := range shards {
		_, b.costs[i] = b.scan(shards, b.pending, i, i+1, minEff)
	}
	for j := range at {
		best, bestCost := -1, math.Inf(1)
		for i, c := range b.costs {
			if lower(c, best, bestCost) {
				best, bestCost = i, c
			}
		}
		best = fallback(best)
		dst[j] = best
		b.pending[best]++
		_, b.costs[best] = b.scan(shards, b.pending, best, best+1, minEff)
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
