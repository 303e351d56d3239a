// Package serve is the live serving layer: a wall-clock daemon that runs a
// trained (and guarded) policy against real time on simulated DVFS cores
// (SimActuator), a minimal allocation-free HTTP/1.1 front end able to sustain
// 100k+ req/s on loopback, and the open/closed-loop load generator that
// drives it. It is the bridge from "reproduction" (virtual time, internal
// arrival generators) to "system" (real sockets, real clocks): the same
// policy binary, the same guard, the same checkpoint registry — driven by
// wall-clock request traffic instead of a simulated arrival process.
package serve

import "sync/atomic"

// nShards is the number of counter stripes. Power of two so the shard pick
// is a mask. Sized for small-core boxes; contention only matters when many
// connection goroutines run truly in parallel.
const nShards = 8

// pad64 separates adjacent shard slots so two cores incrementing different
// shards never bounce the same cache line (64B lines; 128B on some parts,
// but one line of slack already removes the pathological sharing).
type pad64 struct {
	_ [56]byte
	v atomic.Uint64
}

// ShardedUint64 is a striped atomic counter: writers add to their own shard
// (picked by connection, not per call), readers sum all stripes. A read is
// not a point-in-time snapshot across shards — it is monotone and never
// loses a count, which is all the telemetry collector needs — and it never
// stops writers.
type ShardedUint64 struct {
	shards [nShards]pad64
}

// Add increments the counter by n on the given stripe.
func (c *ShardedUint64) Add(shard int, n uint64) {
	c.shards[shard&(nShards-1)].v.Add(n)
}

// Load returns the sum over all stripes.
func (c *ShardedUint64) Load() uint64 {
	var sum uint64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// WireCounters is the sharded counter set the HTTP layer maintains. One
// stripe is assigned per connection at accept time, so the hot path is a
// single uncontended atomic add and the collector can snapshot at any
// moment without a lock.
type WireCounters struct {
	// Accepted counts fast-path requests admitted into the backend.
	Accepted ShardedUint64
	// Responded counts responses written (all paths).
	Responded ShardedUint64
	// Control counts slow-path (control/telemetry endpoint) requests.
	Control ShardedUint64
	// BadRequests counts unparseable or unsupported requests.
	BadRequests ShardedUint64
	// ConnsOpened and ConnsClosed count connection lifecycle events.
	ConnsOpened ShardedUint64
	ConnsClosed ShardedUint64
	// ReadBytes and WrittenBytes count wire traffic.
	ReadBytes    ShardedUint64
	WrittenBytes ShardedUint64
}
