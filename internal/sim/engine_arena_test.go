package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestEngineOrderMatchesReference cross-checks the 4-ary heap's pop order
// against a reference model: events must fire in strict (at, seq) order
// regardless of insertion pattern and of cancellations and reschedules
// interleaved with it. The reference models a reschedule as cancel + add: the
// event leaves its old place and joins the back of its new instant.
func TestEngineOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		type ref struct {
			at Time
			id int
		}
		// entries[id] is the event's place in the reference schedule; order
		// is its position in scheduling order, a fresh one per At and per
		// reschedule.
		type entry struct {
			at    Time
			order int
			live  bool
		}
		var got []ref
		var entries []entry
		var handles []Event
		fns := []func(){}
		order := 0
		n := 50 + rng.Intn(200)
		for i := 0; i < n; i++ {
			switch op := rng.Intn(10); {
			case op < 6 || len(handles) == 0:
				at := Time(rng.Intn(40)) // dense: many same-instant ties
				id := len(handles)
				fns = append(fns, func() { got = append(got, ref{e.Now(), id}) })
				handles = append(handles, e.At(at, fns[id]))
				entries = append(entries, entry{at, order, true})
				order++
			case op < 8:
				// Reschedule a random event; a cancelled one schedules afresh.
				id := rng.Intn(len(handles))
				at := Time(rng.Intn(40))
				old := handles[id]
				handles[id] = e.Reschedule(old, at, fns[id])
				if !old.Cancelled() {
					t.Fatalf("trial %d: rescheduled handle still reports pending", trial)
				}
				if handles[id].Cancelled() || handles[id].at != at {
					t.Fatalf("trial %d: new handle %+v not pending at %v", trial, handles[id], at)
				}
				entries[id] = entry{at, order, true}
				order++
			default:
				id := rng.Intn(len(handles))
				e.Cancel(handles[id])
				entries[id].live = false
			}
		}
		pending := 0
		for _, en := range entries {
			if en.live {
				pending++
			}
		}
		if e.Pending() != pending {
			t.Fatalf("trial %d: %d events pending, reference has %d", trial, e.Pending(), pending)
		}
		e.Run()
		// Reference: sort by at, scheduling order among ties, minus the
		// cancelled events.
		var exp []ref
		for id, en := range entries {
			if en.live {
				exp = append(exp, ref{en.at, id})
			}
		}
		sort.Slice(exp, func(i, j int) bool {
			a, b := entries[exp[i].id], entries[exp[j].id]
			if a.at != b.at {
				return a.at < b.at
			}
			return a.order < b.order
		})
		if len(got) != len(exp) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(got), len(exp))
		}
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("trial %d: event %d fired as %+v, want %+v", trial, i, got[i], exp[i])
			}
		}
	}
}

// TestEngineRescheduleStaleHandle: a reschedule through a handle that is no
// longer pending — fired, cancelled, zero, or from before a Reset — schedules
// afresh and never moves, re-keys or cancels the event now occupying the
// handle's recycled slot.
func TestEngineRescheduleStaleHandle(t *testing.T) {
	e := NewEngine()
	var log []string
	note := func(s string) func() { return func() { log = append(log, s) } }

	fired := e.At(1, note("first"))
	e.Step()
	cancelled := e.At(5, note("cancelled"))
	e.Cancel(cancelled)
	// Both stale handles name the one recycled slot; its new occupant must
	// survive reschedules through either.
	occupant := e.At(10, note("occupant"))
	a := e.Reschedule(fired, 8, note("via-fired"))
	b := e.Reschedule(cancelled, 9, note("via-cancelled"))
	c := e.Reschedule(Event{}, 7, note("via-zero"))
	for _, ev := range []Event{occupant, a, b, c} {
		if ev.Cancelled() {
			t.Fatalf("event %+v not pending after stale reschedules", ev)
		}
	}
	if e.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", e.Pending())
	}
	e.Run()
	want := []string{"first", "via-zero", "via-fired", "via-cancelled", "occupant"}
	if len(log) != len(want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("fired %v, want %v", log, want)
		}
	}

	// A live reschedule keeps its slot and invalidates the old handle only.
	log = nil
	e.Reset()
	if r := e.Reschedule(occupant, 3, note("via-pre-reset")); r.Cancelled() {
		t.Fatal("reschedule through a pre-Reset handle did not schedule")
	}
	keep := e.At(4, note("keep"))
	old := e.At(6, note("moved"))
	moved := e.Reschedule(old, 2, note("moved"))
	e.Cancel(old) // stale: must not cancel the moved event
	if moved.Cancelled() || keep.Cancelled() || !old.Cancelled() {
		t.Fatalf("after live reschedule: moved %v keep %v old %v", moved.Cancelled(), keep.Cancelled(), old.Cancelled())
	}
	if len(e.arena) > 4 {
		t.Errorf("live reschedule took a new slot: arena has %d", len(e.arena))
	}
	e.Run()
	want = []string{"moved", "via-pre-reset", "keep"}
	for i := range want {
		if len(log) != len(want) || log[i] != want[i] {
			t.Fatalf("fired %v, want %v", log, want)
		}
	}
}

// TestEngineResetEquivalence: a Reset engine must behave identically to a
// fresh one — same fire order, clock, and counters — even after arbitrary
// prior use grew its arena and heap.
func TestEngineResetEquivalence(t *testing.T) {
	run := func(e *Engine) (order []Time, fired uint64, now Time) {
		var cancelMe Event
		e.At(5, func() {
			order = append(order, e.Now())
			e.Cancel(cancelMe)
			e.After(7, func() { order = append(order, e.Now()) })
		})
		cancelMe = e.At(6, func() { order = append(order, -1) })
		e.At(6, func() { order = append(order, e.Now()) })
		e.Run()
		return order, e.Fired(), e.Now()
	}

	fresh := NewEngine()
	wantOrder, wantFired, wantNow := run(fresh)

	reused := NewEngine()
	// Arbitrary prior traffic: grow arena and heap, leave pending events.
	for i := 0; i < 300; i++ {
		reused.After(Time(i%17+1), func() {})
		if i%3 == 0 {
			reused.Step()
		}
	}
	stale := reused.After(1000, func() {})
	reused.Reset()

	if reused.Now() != 0 || reused.Fired() != 0 || reused.Pending() != 0 {
		t.Fatalf("Reset left state: now=%v fired=%d pending=%d",
			reused.Now(), reused.Fired(), reused.Pending())
	}
	gotOrder, gotFired, gotNow := run(reused)
	if gotFired != wantFired || gotNow != wantNow {
		t.Errorf("reset engine: fired=%d now=%v, fresh: fired=%d now=%v",
			gotFired, gotNow, wantFired, wantNow)
	}
	if len(gotOrder) != len(wantOrder) {
		t.Fatalf("order %v, want %v", gotOrder, wantOrder)
	}
	for i := range wantOrder {
		if gotOrder[i] != wantOrder[i] {
			t.Fatalf("order %v, want %v", gotOrder, wantOrder)
		}
	}
	// A pre-Reset handle is stale: cancelling it must not disturb anything.
	if !stale.Cancelled() {
		t.Error("pre-Reset handle still reports live")
	}
	reused.Cancel(stale)
}

// TestEngineStaleHandleAfterReuse: once an event fires, its arena slot may
// be recycled by a new event. Cancelling the old handle must not cancel the
// slot's new occupant (the ABA hazard generation counters exist for).
func TestEngineStaleHandleAfterReuse(t *testing.T) {
	e := NewEngine()
	first := e.At(1, func() {})
	if !e.Step() {
		t.Fatal("first event did not fire")
	}
	fired := false
	second := e.At(2, func() { fired = true })
	e.Cancel(first) // stale: must not touch the recycled slot
	e.Run()
	if !fired {
		t.Fatal("stale cancel killed the slot's new occupant")
	}
	if second.Cancelled() != true {
		t.Error("fired event should report Cancelled (not pending)")
	}
}

// TestEngineScheduleZeroAllocs: steady-state scheduling — At/After, Step,
// Cancel, Reschedule against a warmed arena — must not allocate.
func TestEngineScheduleZeroAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 256; i++ {
		e.After(Time(i+1), fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		ev := e.After(100, fn)
		e.Cancel(ev)
		ev = e.After(300, fn)
		ev = e.Reschedule(ev, e.Now()+200, fn)
		e.Reschedule(ev, e.Now()+400, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/cancel/reschedule/fire allocates %v allocs/op, want 0", allocs)
	}
}

// TestEngineArenaRecycling: the arena must not grow beyond the maximum
// number of simultaneously pending events, no matter how many events flow
// through in total.
func TestEngineArenaRecycling(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	const standing = 64
	for i := 0; i < standing; i++ {
		e.After(Time(i+1), fn)
	}
	for i := 0; i < 10000; i++ {
		e.After(standing+1, fn)
		e.Step()
	}
	if got := len(e.arena); got > standing+1 {
		t.Errorf("arena grew to %d slots for %d standing events", got, standing+1)
	}
}
