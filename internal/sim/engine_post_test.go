package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// Script opcodes of the engine order fence: each takes one argument byte.
const (
	opAt         = iota // At(now + arg%8), keeping the handle
	opPost              // Post(now + arg%8)
	opPostBack          // Post(now + arg%4): often before the last pending post, the heap fallback
	opCancel            // Cancel(handle arg)
	opReschedule        // Reschedule(handle arg, now + arg%5)
	opRunUntil          // RunUntil(now + arg%6)
	opStep              // Step
	opReset             // Reset, every pending post with it
	numOps
)

// orderRig drives two engines through one script. In posts every Post of the
// script is Engine.Post; in ats the same calls are Engine.At, whose order is
// the heap's (at, seq) order that TestEngineOrderMatchesReference fences. Both
// engines fire callbacks that log their event's id, and some callbacks
// schedule a child at the current instant — a Post, or an At whose handle the
// script may later cancel or reschedule.
type orderRig struct {
	posts, ats       *Engine
	logP, logA       []int
	nextP, nextA     int
	handlP, handlA   []Event // handles of At events, index-aligned across engines
	rescheduled      int
	postedOutOfOrder int
}

func newOrderRig() *orderRig {
	return &orderRig{posts: NewEngine(), ats: NewEngine()}
}

// fn returns the callback for the next event of one engine. A callback whose
// id is a multiple of 3 posts a child at Now() — from inside the run loop, at
// the instant being drained — and one whose id is 1 mod 5 adds an At child
// one tick later; children spawn nothing.
func (r *orderRig) fn(posts, spawn bool) func() {
	e, log, next := r.ats, &r.logA, &r.nextA
	if posts {
		e, log, next = r.posts, &r.logP, &r.nextP
	}
	id := *next
	*next++
	return func() {
		*log = append(*log, id)
		if !spawn {
			return
		}
		switch {
		case id%3 == 0:
			r.post(posts, e.Now(), false)
		case id%5 == 1:
			r.at(posts, e.Now()+1, false)
		}
	}
}

// post schedules on one engine what the script's Post means for it.
func (r *orderRig) post(posts bool, t Time, spawn bool) {
	if posts {
		r.posts.Post(t, r.fn(true, spawn))
	} else {
		r.ats.At(t, r.fn(false, spawn))
	}
}

// at schedules a handled event on one engine.
func (r *orderRig) at(posts bool, t Time, spawn bool) {
	if posts {
		r.handlP = append(r.handlP, r.posts.At(t, r.fn(true, spawn)))
	} else {
		r.handlA = append(r.handlA, r.ats.At(t, r.fn(false, spawn)))
	}
}

// lastPost is the time of the latest post still pending in the ring, or -1.
func (r *orderRig) lastPost() Time {
	if r.posts.postHead == r.posts.postTail {
		return -1
	}
	return r.posts.post[(r.posts.postTail-1)&uint64(len(r.posts.post)-1)].at
}

// apply runs one script operation on both engines.
func (r *orderRig) apply(op, arg byte) {
	now := r.ats.Now()
	switch op % numOps {
	case opAt:
		r.at(true, now+Time(arg%8), true)
		r.at(false, now+Time(arg%8), true)
	case opPost, opPostBack:
		t := now + Time(arg%8)
		if op%numOps == opPostBack {
			t = now + Time(arg%4)
		}
		if t < r.lastPost() {
			r.postedOutOfOrder++
		}
		r.post(true, t, true)
		r.post(false, t, true)
	case opCancel:
		if n := len(r.handlA); n > 0 {
			r.posts.Cancel(r.handlP[int(arg)%n])
			r.ats.Cancel(r.handlA[int(arg)%n])
		}
	case opReschedule:
		if n := len(r.handlA); n > 0 {
			k, t := int(arg)%n, now+Time(arg%5)
			r.handlP[k] = r.posts.Reschedule(r.handlP[k], t, r.fn(true, false))
			r.handlA[k] = r.ats.Reschedule(r.handlA[k], t, r.fn(false, false))
			r.rescheduled++
		}
	case opRunUntil:
		r.posts.RunUntil(now + Time(arg%6))
		r.ats.RunUntil(now + Time(arg%6))
	case opStep:
		if p, a := r.posts.Step(), r.ats.Step(); p != a {
			panic(fmt.Sprintf("Step fired %v with posts, %v with ats", p, a))
		}
	case opReset:
		r.posts.Reset()
		r.ats.Reset()
		r.logP, r.logA = r.logP[:0], r.logA[:0]
		r.nextP, r.nextA = 0, 0
	}
}

// diff reports the first way the two engines disagree, or "".
func (r *orderRig) diff() string {
	switch {
	case !slices.Equal(r.logP, r.logA):
		return fmt.Sprintf("callback order %v with posts, %v with ats", r.logP, r.logA)
	case r.posts.Now() != r.ats.Now():
		return fmt.Sprintf("Now %v with posts, %v with ats", r.posts.Now(), r.ats.Now())
	case r.posts.Fired() != r.ats.Fired():
		return fmt.Sprintf("Fired %d with posts, %d with ats", r.posts.Fired(), r.ats.Fired())
	case r.posts.Pending() != r.ats.Pending():
		return fmt.Sprintf("Pending %d with posts, %d with ats", r.posts.Pending(), r.ats.Pending())
	}
	return ""
}

// runOrderScript plays script (opcode, argument byte pairs) on a fresh rig,
// drains both engines at the end, and returns the rig and the first
// disagreement, naming the operation after which it appeared.
func runOrderScript(script []byte) (r *orderRig, bad string) {
	r = newOrderRig()
	for i := 0; i+1 < len(script); i += 2 {
		r.apply(script[i], script[i+1])
		if d := r.diff(); d != "" {
			return r, fmt.Sprintf("after op %d (%d, %d): %s", i/2, script[i]%numOps, script[i+1], d)
		}
	}
	for r.posts.Step() || r.ats.Step() {
	}
	if d := r.diff(); d != "" {
		return r, "after the final drain: " + d
	}
	return r, ""
}

// TestEngineOrderPostMatchesAt is the fence around Post: random scripts of
// At, Post, Cancel, Reschedule, RunUntil, Step and Reset run on two engines,
// one posting and one scheduling the same events with At, and after every
// operation both have fired the same callbacks in the same order and agree
// on Now, Fired and Pending. Callbacks post at the instant being drained and
// add handled events of their own. The seed is drawn from the clock and
// logged, so a failure names the run that reproduces it.
func TestEngineOrderPostMatchesAt(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	var outOfOrder, reschedules, posted uint64
	for trial := 0; trial < 300; trial++ {
		script := make([]byte, 2*(20+rng.Intn(300)))
		rng.Read(script)
		r, bad := runOrderScript(script)
		if bad != "" {
			t.Fatalf("seed %d trial %d: %s", seed, trial, bad)
		}
		outOfOrder += uint64(r.postedOutOfOrder)
		reschedules += uint64(r.rescheduled)
		posted += uint64(r.nextP)
	}
	// The scripts must have reached the cases the fence exists for.
	if outOfOrder == 0 || reschedules == 0 || posted == 0 {
		t.Fatalf("seed %d: scripts never posted out of order (%d), rescheduled (%d) or posted (%d)",
			seed, outOfOrder, reschedules, posted)
	}
}

// TestEnginePostCases pins the orderings the fence is about on hand-written
// scripts: same-instant ties between posted events and events with handles,
// a post earlier than the one pending (the heap fallback), a post at Now()
// from inside a callback, and Reset with posts pending.
func TestEnginePostCases(t *testing.T) {
	e := NewEngine()
	var got []string
	mark := func(s string) func() { return func() { got = append(got, s) } }
	e.At(5, mark("a5"))
	e.Post(5, mark("p5"))
	h := e.At(5, mark("b5"))
	e.Post(7, mark("p7"))
	e.Post(3, mark("p3")) // before p7: falls back to the heap
	e.Post(7, func() {
		got = append(got, "q7")
		e.Post(e.Now(), mark("q7-child"))
	})
	e.At(7, mark("c7"))
	e.Reschedule(h, 7, mark("b7"))
	e.RunUntil(10)
	want := "[p3 a5 p5 p7 q7 c7 b7 q7-child]"
	if s := fmt.Sprint(got); s != want {
		t.Fatalf("fired %s, want %s", s, want)
	}
	if e.Fired() != 8 || e.Now() != 10 || e.Pending() != 0 {
		t.Fatalf("Fired %d Now %v Pending %d after the drain", e.Fired(), e.Now(), e.Pending())
	}

	e.Post(12, mark("dropped"))
	e.Post(15, mark("dropped"))
	e.At(11, mark("dropped"))
	e.Reset()
	got = got[:0]
	e.Post(1, mark("fresh"))
	e.Run()
	if s := fmt.Sprint(got); s != "[fresh]" || e.Fired() != 1 {
		t.Fatalf("after Reset with posts pending: fired %s (%d events), want [fresh]", s, e.Fired())
	}
}

// FuzzEngineOrder is TestEngineOrderPostMatchesAt over fuzzer-chosen
// scripts. The seed corpus under testdata/fuzz/FuzzEngineOrder holds scripts
// that wrap and grow the post ring, post out of order and reset with posts
// pending.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{opPost, 3, opAt, 3, opPost, 3, opStep, 0, opRunUntil, 5})
	f.Add([]byte{opPost, 7, opPostBack, 1, opReschedule, 0, opCancel, 1, opRunUntil, 7, opReset, 0, opPost, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if _, bad := runOrderScript(script); bad != "" {
			t.Fatal(bad)
		}
	})
}

// TestEnginePostZeroAllocs: once the post ring has grown to the number of
// posts pending at once, posting and draining allocates nothing.
func TestEnginePostZeroAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Post(Time(i), fn)
	}
	e.RunUntil(63)
	allocs := testing.AllocsPerRun(1000, func() {
		now := e.Now()
		for k := Time(1); k <= 8; k++ {
			e.Post(now+k, fn)
		}
		e.RunUntil(now + 8)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Post + RunUntil allocates %v per run, want 0", allocs)
	}
}

// TestEnginePostRingBounded: the ring holds what is pending, not what was
// ever posted. A daemon-like engine that never fully drains — at least one
// post pending throughout 1e5 posts, up to 100 at the peak of each wave —
// ends with the capacity the peak needs.
func TestEnginePostRingBounded(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	maxPending := 0
	for i := 0; i < 100000; i++ {
		e.Post(e.Now()+Time(1+i%100), fn)
		if i%100 == 99 {
			e.RunUntil(e.Now() + 99) // leaves the wave's last post pending
		}
		if p := e.Pending(); p > maxPending {
			maxPending = p
		}
		if e.Pending() == 0 {
			t.Fatalf("post %d: ring drained; the test must keep one pending", i)
		}
	}
	if maxPending > 101 || e.postCap() > 128 {
		t.Fatalf("ring capacity %d for at most %d pending posts, want <= 128", e.postCap(), maxPending)
	}
}
