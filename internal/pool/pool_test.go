package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunExecutesEveryUnit(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		var ran [20]atomic.Bool
		units := make([]Unit, len(ran))
		for i := range units {
			i := i
			units[i] = func(context.Context) error { ran[i].Store(true); return nil }
		}
		if err := Run(context.Background(), units, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ran {
			if !ran[i].Load() {
				t.Errorf("workers=%d: unit %d never ran", workers, i)
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	if err := Run(context.Background(), nil, 4); err != nil {
		t.Fatalf("empty grid: %v", err)
	}
}

func TestClampWorkers(t *testing.T) {
	want := runtime.GOMAXPROCS(0)
	for _, w := range []int{0, -1, -100} {
		if got := Clamp(w); got != want {
			t.Errorf("Clamp(%d) = %d, want GOMAXPROCS %d", w, got, want)
		}
	}
	if got := Clamp(7); got != 7 {
		t.Errorf("Clamp(7) = %d", got)
	}
	// Run itself must accept degenerate worker counts.
	var n atomic.Int32
	units := []Unit{func(context.Context) error { n.Add(1); return nil }}
	for _, w := range []int{0, -5} {
		if err := Run(context.Background(), units, w); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
	}
	if n.Load() != 2 {
		t.Errorf("unit ran %d times, want 2", n.Load())
	}
}

func TestCancellationMidGrid(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	release := make(chan struct{})
	units := make([]Unit, 50)
	for i := range units {
		units[i] = func(context.Context) error {
			started.Add(1)
			<-release
			return nil
		}
	}
	done := make(chan error, 1)
	go func() { done <- Run(ctx, units, 2) }()

	// Wait for both workers to be mid-unit, cancel, then release them.
	for started.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run deadlocked after cancellation")
	}
	// Only the in-flight units (plus at most the one blocked in dispatch)
	// may have started; the rest of the grid must never run.
	if s := started.Load(); s > 3 {
		t.Errorf("%d units started after mid-grid cancel, want <= 3", s)
	}
}

func TestPanicSurfacesAsError(t *testing.T) {
	var after atomic.Bool
	units := []Unit{
		func(context.Context) error { panic("boom") },
		func(context.Context) error { after.Store(true); return nil },
	}
	done := make(chan error, 1)
	go func() { done <- Run(context.Background(), units, 1) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("err = %v, want captured panic", err)
		}
		if !strings.Contains(err.Error(), "pool_test.go") {
			t.Errorf("panic error lacks a stack trace: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run deadlocked after panic")
	}
	// Fail-fast: with one worker the unit after the panic is never dispatched.
	if after.Load() {
		t.Error("unit after panicking unit still ran")
	}
}

func TestFirstErrorPropagationIsDeterministic(t *testing.T) {
	// Several units fail; the returned error must be the lowest-indexed
	// one regardless of worker count or completion order.
	for _, workers := range []int{1, 2, 8} {
		units := make([]Unit, 10)
		for i := range units {
			i := i
			units[i] = func(context.Context) error {
				if i%3 == 1 { // units 1, 4, 7 fail
					return fmt.Errorf("unit %d failed", i)
				}
				return nil
			}
		}
		err := Run(context.Background(), units, workers)
		if err == nil || err.Error() != "unit 1 failed" {
			t.Errorf("workers=%d: err = %v, want unit 1's error", workers, err)
		}
	}
}

func TestProgressCallbackOrdering(t *testing.T) {
	const n = 30
	units := make([]Unit, n)
	for i := range units {
		units[i] = func(context.Context) error { return nil }
	}
	var (
		mu    sync.Mutex
		dones []int
		seen  = map[int]int{}
	)
	err := RunNotify(context.Background(), units, 4, func(p Progress) {
		mu.Lock()
		defer mu.Unlock()
		dones = append(dones, p.Done)
		seen[p.Index]++
		if p.Total != n {
			t.Errorf("Total = %d, want %d", p.Total, n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dones) != n {
		t.Fatalf("%d callbacks, want %d", len(dones), n)
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("callback %d reported Done=%d, want %d (strictly increasing)", i, d, i+1)
		}
	}
	for i := 0; i < n; i++ {
		if seen[i] != 1 {
			t.Errorf("unit %d reported %d times", i, seen[i])
		}
	}
}

func TestMapOrderIndependentOfScheduling(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	out, err := Map(context.Background(), items, 8, func(_ context.Context, v, idx int) (string, error) {
		if v != idx {
			t.Errorf("item %d delivered with idx %d", v, idx)
		}
		// Stagger completions so results would interleave if assembled by
		// completion order.
		time.Sleep(time.Duration(v%7) * time.Millisecond)
		return fmt.Sprintf("r%d", v), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range out {
		if want := fmt.Sprintf("r%d", i); s != want {
			t.Fatalf("out[%d] = %q, want %q", i, s, want)
		}
	}
}

func TestMapError(t *testing.T) {
	_, err := Map(context.Background(), []int{0, 1, 2}, 2, func(_ context.Context, v, _ int) (int, error) {
		if v == 1 {
			return 0, errors.New("nope")
		}
		return v, nil
	})
	if err == nil || err.Error() != "nope" {
		t.Fatalf("err = %v", err)
	}
}

// TestGangRunsEveryUnitOncePerPhase: over 1,000 phases of one gang, every
// unit runs exactly once per phase at any worker count, including more
// workers than units.
func TestGangRunsEveryUnitOncePerPhase(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		var runs [5]atomic.Int32
		units := make([]Unit, len(runs))
		for i := range units {
			i := i
			units[i] = func(context.Context) error { runs[i].Add(1); return nil }
		}
		g := NewGang(units, workers)
		for phase := int32(1); phase <= 1000; phase++ {
			if err := g.Run(context.Background()); err != nil {
				t.Fatalf("workers=%d phase %d: %v", workers, phase, err)
			}
			for i := range runs {
				if n := runs[i].Load(); n != phase {
					t.Fatalf("workers=%d: after phase %d unit %d ran %d times", workers, phase, i, n)
				}
			}
		}
		g.Close()
	}
}

// TestGangErrorsPerPhase: a phase returns its lowest-indexed error or
// captured panic, and the gang's workers survive both into the next phase.
func TestGangErrorsPerPhase(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var mode atomic.Int32 // 0 ok, 1 units 1, 4, 7 fail, 2 unit 3 panics
		units := make([]Unit, 10)
		for i := range units {
			i := i
			units[i] = func(context.Context) error {
				switch m := mode.Load(); {
				case m == 1 && i%3 == 1:
					return fmt.Errorf("unit %d failed", i)
				case m == 2 && i == 3:
					panic("boom")
				}
				return nil
			}
		}
		g := NewGang(units, workers)
		for _, m := range []int32{1, 0, 2, 0, 1} {
			mode.Store(m)
			err := g.Run(context.Background())
			switch {
			case m == 0 && err != nil:
				t.Errorf("workers=%d: clean phase returned %v", workers, err)
			case m == 1 && (err == nil || err.Error() != "unit 1 failed"):
				t.Errorf("workers=%d: err = %v, want unit 1's error", workers, err)
			case m == 2 && (err == nil || !strings.Contains(err.Error(), "boom")):
				t.Errorf("workers=%d: err = %v, want the captured panic", workers, err)
			}
		}
		g.Close()
	}
}

// TestRunStartsNoUnitAboveSeenFailure: once a failure is recorded, no unit
// above its index starts, while a unit below it still runs to completion.
func TestRunStartsNoUnitAboveSeenFailure(t *testing.T) {
	seen := make(chan struct{})
	var started [8]atomic.Bool
	units := make([]Unit, len(started))
	for i := range units {
		i := i
		units[i] = func(context.Context) error {
			started[i].Store(true)
			switch i {
			case 0:
				<-seen // hold worker 0 until unit 1's failure is recorded
			case 1:
				return errors.New("unit 1 failed")
			}
			return nil
		}
	}
	err := RunNotify(context.Background(), units, 2, func(p Progress) {
		if p.Index == 1 {
			close(seen)
		}
	})
	if err == nil || err.Error() != "unit 1 failed" {
		t.Fatalf("err = %v, want unit 1's error", err)
	}
	for i := 2; i < len(started); i++ {
		if started[i].Load() {
			t.Errorf("unit %d started after unit 1's failure was recorded", i)
		}
	}
}

// TestGangCancellationBetweenUnits: a cancelled phase starts no unit after
// the in-flight ones, returns the context's error, and the next phase on a
// live context runs every unit.
func TestGangCancellationBetweenUnits(t *testing.T) {
	var started atomic.Int32
	block := true
	release := make(chan struct{})
	units := make([]Unit, 50)
	for i := range units {
		units[i] = func(context.Context) error {
			started.Add(1)
			if block {
				<-release
			}
			return nil
		}
	}
	g := NewGang(units, 2)
	defer g.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.Run(ctx) }()
	for started.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run deadlocked after cancellation")
	}
	if s := started.Load(); s != 2 {
		t.Errorf("%d units started in a phase cancelled with 2 in flight, want 2", s)
	}
	block = false
	started.Store(0)
	if err := g.Run(context.Background()); err != nil || started.Load() != 50 {
		t.Fatalf("phase after cancellation: err %v, %d of 50 units ran", err, started.Load())
	}
}

// TestGangCloseReturnsWorkers: Close stops every worker, whether or not the
// gang ever ran, and closing again does nothing.
func TestGangCloseReturnsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	units := make([]Unit, 20)
	for i := range units {
		units[i] = func(context.Context) error { return nil }
	}
	idle := NewGang(units, 8)
	g := NewGang(units, 8)
	for i := 0; i < 3; i++ {
		if err := g.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	idle.Close()
	g.Close()
	g.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGangRunZeroAllocs: a steady-state phase allocates nothing of its own.
func TestGangRunZeroAllocs(t *testing.T) {
	var n atomic.Int64
	units := make([]Unit, 9)
	for i := range units {
		units[i] = func(context.Context) error { n.Add(1); return nil }
	}
	g := NewGang(units, 2)
	defer g.Close()
	ctx := context.Background()
	if err := g.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() { _ = g.Run(ctx) }); allocs != 0 {
		t.Errorf("Gang.Run allocates %v times per phase, want 0", allocs)
	}
}

// TestGangIdleWorkerClaimsOthersUnits: a worker that has run its own units
// claims the unclaimed units of a busy one. Unit 0 holds worker 0 until
// unit 2, worker 0's next unit, has run — which only worker 1 can do.
func TestGangIdleWorkerClaimsOthersUnits(t *testing.T) {
	ran2 := make(chan struct{})
	units := []Unit{
		func(context.Context) error {
			select {
			case <-ran2:
				return nil
			case <-time.After(5 * time.Second):
				return errors.New("unit 2 never ran while worker 0 was busy")
			}
		},
		func(context.Context) error { return nil },
		func(context.Context) error { close(ran2); return nil },
	}
	g := NewGang(units, 2)
	defer g.Close()
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}
