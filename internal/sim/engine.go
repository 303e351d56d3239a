package sim

import "fmt"

// Event is a cancellable handle to a scheduled callback, returned by
// Engine.At and Engine.After. It is a small value (not a pointer): the
// engine stores events in an index-stable arena and hands out generation-
// checked references, so scheduling allocates nothing in steady state and a
// stale handle (fired, cancelled, or from before a Reset) can never reach a
// recycled slot. The zero Event refers to no event; cancelling it is a no-op.
type Event struct {
	eng *Engine
	at  Time
	ref uint32 // arena index + 1; 0 = no event
	gen uint32 // must match the slot's generation to be live
}

// Cancelled reports whether the event is no longer pending: it fired, was
// cancelled, or the engine was reset. The zero Event reports true.
func (ev Event) Cancelled() bool {
	if ev.eng == nil || ev.ref == 0 {
		return true
	}
	return ev.eng.arena[ev.ref-1].gen != ev.gen
}

// slot is one arena entry. Slots are recycled through a free list; gen
// increments on every release so outstanding handles become inert rather
// than aliasing the slot's next occupant.
type slot struct {
	fn  func()
	gen uint32
	pos int32 // index into the heap's node array, -1 when not queued
}

// node is one entry of the typed 4-ary min-heap. The sort key (at, seq)
// lives inline in the node so comparisons never chase an arena pointer.
type node struct {
	at  Time
	seq uint64
	idx int32 // arena slot holding the callback
}

// posted is one event scheduled by Post. It has no handle, so nothing can
// cancel or move it, and it carries its callback inline.
type posted struct {
	at  Time
	seq uint64
	fn  func()
}

// Engine is a discrete-event simulation driver. It is not safe for concurrent
// use; a simulation is a single logical thread of control whose parallelism,
// if any, lives inside individual event handlers.
//
// The scheduler is a concrete 4-ary min-heap over an index-stable event
// arena with a free list: At/After/Cancel/Reschedule and the run loop perform
// zero heap allocations in steady state and no interface boxing. Events with
// equal firing times keep FIFO order via a monotone sequence number, so the
// pop order is a strict total order on (at, seq) — identical to the previous
// container/heap implementation bit for bit. Events from Post that arrive in
// non-decreasing time skip the heap: they wait in a ring that is already in
// (at, seq) order, and the run loop merges its head with the heap's root.
type Engine struct {
	now   Time
	nodes []node // 4-ary min-heap ordered by (at, seq)
	arena []slot
	free  []int32 // recycled arena indices (LIFO)
	seq   uint64
	fired uint64

	// post is a power-of-two ring of posted events, ascending in (at, seq);
	// the pending ones are [postHead, postTail) (monotone counters).
	post               []posted
	postHead, postTail uint64
}

// NewEngine returns an engine whose clock starts at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Reset returns the engine to its initial state — clock at zero, no pending
// events, counters cleared — while keeping the event arena, free list, and
// heap storage so a reused engine schedules without re-growing them. All
// outstanding Event handles are invalidated (Cancel on them is a no-op).
// A reset engine is observably identical to a fresh NewEngine.
func (e *Engine) Reset() {
	e.nodes = e.nodes[:0]
	e.free = e.free[:0]
	for i := range e.arena {
		s := &e.arena[i]
		s.fn = nil
		s.gen++
		s.pos = -1
		e.free = append(e.free, int32(i))
	}
	for ; e.postHead != e.postTail; e.postHead++ {
		e.post[e.postHead&uint64(len(e.post)-1)].fn = nil
	}
	e.postHead, e.postTail = 0, 0
	e.now, e.seq, e.fired = 0, 0, 0
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it is always a logic error in a discrete-event model.
func (e *Engine) At(t Time, fn func()) Event {
	if t < e.now || fn == nil {
		e.badSchedule(t)
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, slot{})
		idx = int32(len(e.arena) - 1)
	}
	s := &e.arena[idx]
	s.fn = fn
	e.nodes = append(e.nodes, node{at: t, seq: e.seq, idx: idx})
	e.seq++
	e.siftUp(len(e.nodes) - 1)
	return Event{eng: e, at: t, ref: uint32(idx) + 1, gen: s.gen}
}

// Post schedules fn to run at absolute virtual time t, like At, but returns
// no handle: a posted event cannot be cancelled or rescheduled. It fires in
// exactly the place At would have given it — it takes the next sequence
// number, and the run loop merges posted events with the heap by the same
// strict (at, seq) order — so replacing At by Post never changes a run. The
// gain is for a caller that posts in non-decreasing time, as an arrival
// process does: those events wait in a ring instead of the heap, at O(1)
// each. A post earlier than the last one still pending falls back to the heap.
func (e *Engine) Post(t Time, fn func()) {
	if t < e.now || fn == nil {
		e.badSchedule(t)
	}
	n := e.postTail - e.postHead
	mask := uint64(len(e.post) - 1)
	if n > 0 && t < e.post[(e.postTail-1)&mask].at {
		e.At(t, fn)
		return
	}
	if int(n) == len(e.post) {
		e.growPost()
		mask = uint64(len(e.post) - 1)
	}
	e.post[e.postTail&mask] = posted{at: t, seq: e.seq, fn: fn}
	e.seq++
	e.postTail++
}

// growPost doubles the post ring, unwrapping the pending events to the front.
// The ring grows only when more posts are pending at once than ever before.
func (e *Engine) growPost() {
	n := 2 * len(e.post)
	if n == 0 {
		n = 16
	}
	ring := make([]posted, n)
	for i, c := 0, e.postHead; c != e.postTail; i, c = i+1, c+1 {
		ring[i] = e.post[c&uint64(len(e.post)-1)]
	}
	e.post = ring
	e.postTail -= e.postHead
	e.postHead = 0
}

// badSchedule panics for a schedule request that is always a logic error in
// a discrete-event model: a time in the past, or no callback.
func (e *Engine) badSchedule(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	panic("sim: scheduling nil event func")
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) Event {
	return e.At(e.now+d, fn)
}

// Every schedules fn to run first at start and then every period thereafter,
// until the engine stops or cancel is invoked. fn receives the firing time.
// It returns a cancel function.
func (e *Engine) Every(start, period Time, fn func(Time)) (cancel func()) {
	if period <= 0 {
		panic("sim: Every with non-positive period")
	}
	var cur Event
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		at := e.now
		cur = e.At(at+period, tick)
		fn(at)
	}
	cur = e.At(start, tick)
	return func() {
		stopped = true
		e.Cancel(cur)
	}
}

// Cancel removes ev from the schedule. Cancelling an already-fired,
// already-cancelled, or zero Event is a no-op.
func (e *Engine) Cancel(ev Event) {
	if ev.eng != e || ev.ref == 0 {
		return
	}
	idx := int32(ev.ref - 1)
	s := &e.arena[idx]
	if s.gen != ev.gen {
		return // fired, cancelled, or pre-Reset: stale handle
	}
	e.remove(int(s.pos))
	e.release(idx)
}

// Reschedule moves the pending event ev to run fn at absolute time t and
// returns its new handle; ev itself becomes stale. It is observably
// Cancel(ev) followed by At(t, fn) — the event gets a fresh sequence number,
// so it fires after everything already scheduled at t, and pop order is the
// strict total order on (at, seq) whatever the heap's arrangement — but the
// node is re-keyed where it sits and sifted once instead of being removed and
// pushed again. A handle that is no longer pending (fired, cancelled, zero,
// or from before a Reset) schedules afresh without touching any other slot.
func (e *Engine) Reschedule(ev Event, t Time, fn func()) Event {
	if ev.eng != e || ev.Cancelled() {
		return e.At(t, fn)
	}
	if t < e.now || fn == nil {
		e.badSchedule(t)
	}
	s := &e.arena[ev.ref-1]
	s.fn = fn
	s.gen++
	i := int(s.pos)
	e.nodes[i].at, e.nodes[i].seq = t, e.seq
	e.seq++
	e.fix(i)
	return Event{eng: e, at: t, ref: ev.ref, gen: s.gen}
}

// release returns an arena slot to the free list, invalidating handles.
func (e *Engine) release(idx int32) {
	s := &e.arena[idx]
	s.fn = nil
	s.gen++
	s.pos = -1
	e.free = append(e.free, idx)
}

// Step fires the earliest pending event, advancing the clock to its time.
// It reports whether an event was fired.
func (e *Engine) Step() bool {
	if e.postHead != e.postTail {
		p := &e.post[e.postHead&uint64(len(e.post)-1)]
		if len(e.nodes) == 0 || nodeLess(node{at: p.at, seq: p.seq}, e.nodes[0]) {
			e.now = p.at
			fn := p.fn
			p.fn = nil
			e.postHead++
			e.fired++
			fn()
			return true
		}
	}
	if len(e.nodes) == 0 {
		return false
	}
	n := e.popMin()
	e.now = n.at
	fn := e.arena[n.idx].fn
	e.release(n.idx)
	e.fired++
	fn()
	return true
}

// RunUntil fires events in order until the next event would be after t, then
// sets the clock to exactly t. Events scheduled at t itself do fire.
func (e *Engine) RunUntil(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, e.now))
	}
	for len(e.nodes) > 0 && e.nodes[0].at <= t ||
		e.postHead != e.postTail && e.post[e.postHead&uint64(len(e.post)-1)].at <= t {
		e.Step()
	}
	e.now = t
}

// nodeLess orders heap nodes by (at, seq): earliest time first, FIFO among
// events at the same instant. seq is unique, so the order is strict and the
// pop sequence is independent of the heap's internal arrangement.
func nodeLess(a, b node) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp restores the heap property for the node at position i by moving it
// toward the root, updating arena back-references along the way.
func (e *Engine) siftUp(i int) {
	n := e.nodes[i]
	for i > 0 {
		p := (i - 1) / 4
		if !nodeLess(n, e.nodes[p]) {
			break
		}
		e.nodes[i] = e.nodes[p]
		e.arena[e.nodes[i].idx].pos = int32(i)
		i = p
	}
	e.nodes[i] = n
	e.arena[n.idx].pos = int32(i)
}

// siftDown restores the heap property for the node at position i by moving
// it toward the leaves.
func (e *Engine) siftDown(i int) {
	n := e.nodes[i]
	sz := len(e.nodes)
	for {
		c := i*4 + 1
		if c >= sz {
			break
		}
		m := c
		end := c + 4
		if end > sz {
			end = sz
		}
		for k := c + 1; k < end; k++ {
			if nodeLess(e.nodes[k], e.nodes[m]) {
				m = k
			}
		}
		if !nodeLess(e.nodes[m], n) {
			break
		}
		e.nodes[i] = e.nodes[m]
		e.arena[e.nodes[i].idx].pos = int32(i)
		i = m
	}
	e.nodes[i] = n
	e.arena[n.idx].pos = int32(i)
}

// popMin removes and returns the root node.
func (e *Engine) popMin() node {
	root := e.nodes[0]
	last := len(e.nodes) - 1
	e.nodes[0] = e.nodes[last]
	e.nodes = e.nodes[:last]
	if last > 0 {
		e.siftDown(0)
	}
	return root
}

// remove deletes the node at heap position i (for Cancel).
func (e *Engine) remove(i int) {
	last := len(e.nodes) - 1
	if i == last {
		e.nodes = e.nodes[:last]
		return
	}
	e.nodes[i] = e.nodes[last]
	e.nodes = e.nodes[:last]
	e.fix(i)
}

// fix restores the heap property around position i after its key changed.
func (e *Engine) fix(i int) {
	if i > 0 && nodeLess(e.nodes[i], e.nodes[(i-1)/4]) {
		e.siftUp(i)
	} else {
		e.siftDown(i)
	}
}
