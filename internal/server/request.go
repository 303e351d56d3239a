// Package server simulates the latency-critical system of the paper's Fig. 3:
// an open-loop request queue drained by worker threads pinned one-to-one to
// DVFS-capable cores, with a pluggable power-management policy, socket energy
// metering, and the system-information feed the DeepPower framework consumes.
package server

import (
	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/sim"
)

// Request is one in-flight client request.
type Request struct {
	// ID is a monotonically increasing sequence number.
	ID uint64
	// Arrive is when the request entered the server queue.
	Arrive sim.Time
	// Start is when a worker began processing it (-1 until dispatched).
	Start sim.Time
	// Finish is when processing completed (-1 until then).
	Finish sim.Time
	// Work holds the sampled demand and observable features.
	Work app.Work
	// ServiceActual is the contended reference service time fixed at
	// dispatch: Work.ServiceRef · (1 + ContentionCoef·ρ).
	ServiceActual sim.Time
	// CoreID is the core that processed the request (-1 until dispatched).
	CoreID int
	// Stage is the DAG stage index this request executes, or -1 for flat
	// (single-stage) requests. For stage requests Arrive is the owning
	// job's arrival, so SLARemaining tracks the end-to-end budget.
	Stage int

	// remaining is reference-service seconds of work left.
	remaining float64
	// job is the owning DAG job, nil for flat requests.
	job *job
}

// Done reports whether processing completed.
func (r *Request) Done() bool { return r.Finish >= 0 }

// Latency returns the end-to-end latency (queue wait + service). It panics
// if the request has not finished.
func (r *Request) Latency() sim.Time {
	if !r.Done() {
		panic("server: Latency of unfinished request")
	}
	return r.Finish - r.Arrive
}

// SLARemaining returns how much of the SLA budget is left at time now
// (negative once the request has already exceeded its deadline).
func (r *Request) SLARemaining(now, sla sim.Time) sim.Time {
	return sla - (now - r.Arrive)
}

// fifo is a FIFO queue of requests backed by a power-of-two ring buffer.
// Pushes and pops move two monotone counters over a fixed ring — no
// head-offset slice growth, no compaction copies — so a steady-state queue
// allocates nothing. The ring grows (doubling, preserving order) only when
// the queue's high-water mark rises; popped slots are nilled so completed
// requests are not pinned by the ring.
type fifo struct {
	buf        []*Request // power-of-two length (0 until first Push)
	head, tail uint64     // monotone counters; queued = [head, tail)
}

func (q *fifo) Len() int { return int(q.tail - q.head) }

func (q *fifo) Push(r *Request) {
	if int(q.tail-q.head) == len(q.buf) {
		q.grow()
	}
	q.buf[q.tail&uint64(len(q.buf)-1)] = r
	q.tail++
}

// grow doubles the ring, unwrapping the live window to the front.
func (q *fifo) grow() {
	n := len(q.buf) * 2
	if n == 0 {
		n = 16
	}
	nb := make([]*Request, n)
	for i, c := 0, q.head; c != q.tail; i, c = i+1, c+1 {
		nb[i] = q.buf[c&uint64(len(q.buf)-1)]
	}
	q.buf = nb
	q.tail -= q.head
	q.head = 0
}

func (q *fifo) Pop() *Request {
	if q.head == q.tail {
		return nil
	}
	i := q.head & uint64(len(q.buf)-1)
	r := q.buf[i]
	q.buf[i] = nil // release the slot's reference
	q.head++
	return r
}

// Peek returns the i-th queued request (0 = next to dispatch) or nil.
func (q *fifo) Peek(i int) *Request {
	if i < 0 || i >= q.Len() {
		return nil
	}
	return q.buf[(q.head+uint64(i))&uint64(len(q.buf)-1)]
}
