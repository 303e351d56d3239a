// Package pool provides a bounded worker pool for running independent
// experiment work units concurrently while keeping results deterministic.
//
// The contract every caller in internal/exp relies on: units must be
// self-contained (no RNG, engine, server, or agent state shared between
// units) and results must be assembled by unit index, never by completion
// order. Under that contract a grid executed with N workers produces output
// byte-identical to the same grid executed serially — the property
// internal/exp's serial/parallel equivalence tests enforce.
//
// One dispatcher serves both shapes of caller: Gang keeps its workers
// across many phases over the same units, and Run, RunNotify and Map are a
// one-shot use of it.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Unit is one independent piece of work. The context is the pool's run
// context; long-running units may watch it for early exit, but the pool
// itself only checks it between unit dispatches.
type Unit func(ctx context.Context) error

// Clamp normalizes a worker count: zero and negative values become
// runtime.GOMAXPROCS(0) so "use every core" is the spelled-out default.
func Clamp(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Progress describes one finished unit. Callbacks are serialized by the
// pool: Done increases by exactly one per callback, from 1 to Total.
type Progress struct {
	// Index is the unit's position in the slice passed to Run.
	Index int
	// Done counts units finished so far, including this one.
	Done int
	// Total is the number of units in the grid.
	Total int
	// Err is the unit's result (nil on success, the recovered panic wrapped
	// as an error on panic).
	Err error
}

// Run executes units with at most workers goroutines. It returns the error
// of the lowest-indexed failed unit (deterministic regardless of worker
// count and scheduling), or the context's error if the run was cancelled
// before every unit completed. A unit panic is captured and surfaced as an
// error rather than crashing the process. After the first failure no unit
// above it is started; in-flight units run to completion.
func Run(ctx context.Context, units []Unit, workers int) error {
	return RunNotify(ctx, units, workers, nil)
}

// RunNotify is Run with a per-unit completion callback. notify may be nil.
// Callbacks are invoked serially under the pool's lock, so they may touch
// shared state without further synchronization.
func RunNotify(ctx context.Context, units []Unit, workers int, notify func(Progress)) error {
	g := newGang(units, workers, notify)
	defer g.Close()
	return g.Run(ctx)
}

// Map runs fn over every item with bounded parallelism and returns the
// results in item order. It shares Run's semantics: first (lowest-index)
// error wins, cancellation stops dispatch, panics become errors.
func Map[T, R any](ctx context.Context, items []T, workers int, fn func(ctx context.Context, item T, idx int) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	units := make([]Unit, len(items))
	for i := range items {
		i := i
		units[i] = func(ctx context.Context) error {
			r, err := fn(ctx, items[i], i)
			if err != nil {
				return err
			}
			out[i] = r
			return nil
		}
	}
	if err := Run(ctx, units, workers); err != nil {
		return nil, err
	}
	return out, nil
}

// Gang runs the same units once per phase on a fixed set of worker
// goroutines that live until Close: the lockstep callers (a fleet epoch, a
// vector-training control period) run one phase after another over state
// that stays put. Unit i's home is worker i mod W. A worker runs its own
// units in ascending order, then claims the lowest-indexed unit another
// worker has not claimed yet, so no worker idles while a unit waits.
//
// A fixed home keeps a unit's state on one goroutine, and mostly in one
// CPU's cache, from phase to phase, where a one-shot Run hands each unit to
// whichever fresh worker is free. Go gives no hard pinning — the scheduler
// decides where a woken worker runs — so this is locality, not a
// guarantee; the results never depend on it.
//
// Each Run keeps the whole contract of the package-level Run. A Gang is
// driven from one goroutine: Run and Close must not be called concurrently,
// nor Run after Close.
type Gang struct {
	units  []Unit
	notify func(Progress)
	// homes[w] counts the claims taken from worker w's units this phase:
	// claim k is unit w + k·len(homes).
	homes []home
	start []chan struct{} // one wake-up per worker and phase
	done  chan struct{}   // the last worker to finish a phase signals it
	wg    sync.WaitGroup

	// Per-phase state, written by Run before it wakes the workers.
	cancel <-chan struct{}
	ctx    context.Context
	errs   []error
	// failedAt is the lowest index that has failed this phase, len(units)
	// while none has.
	failedAt atomic.Int64
	running  atomic.Int32 // workers still in the phase
	mu       sync.Mutex   // serializes notify and finished
	finished int
}

// home is one worker's claim cursor, padded to its own cache line so
// claims on one worker's units do not slow another's.
type home struct {
	next atomic.Int64
	_    [56]byte
}

// NewGang starts min(Clamp(workers), len(units)) workers for units. The
// caller must Close it to stop them.
func NewGang(units []Unit, workers int) *Gang {
	return newGang(units, workers, nil)
}

func newGang(units []Unit, workers int, notify func(Progress)) *Gang {
	w := min(Clamp(workers), len(units))
	g := &Gang{
		units:  units,
		notify: notify,
		homes:  make([]home, w),
		start:  make([]chan struct{}, w),
		done:   make(chan struct{}, 1),
		errs:   make([]error, len(units)),
	}
	g.wg.Add(w)
	for i := range g.start {
		g.start[i] = make(chan struct{}, 1)
		go g.worker(i, g.start[i])
	}
	return g
}

// Run executes every unit once and returns when all started units have
// returned, with Run's error semantics: the lowest-indexed unit error,
// else the context's error.
func (g *Gang) Run(ctx context.Context) error {
	if len(g.units) == 0 {
		return ctx.Err()
	}
	g.ctx, g.cancel = ctx, ctx.Done()
	clear(g.errs)
	for i := range g.homes {
		g.homes[i].next.Store(0)
	}
	g.failedAt.Store(int64(len(g.units)))
	g.finished = 0
	g.running.Store(int32(len(g.start)))
	for _, c := range g.start {
		c <- struct{}{}
	}
	<-g.done
	g.ctx, g.cancel = nil, nil
	for _, err := range g.errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// Close stops the workers and waits for them to exit. It must not be
// called while Run is in progress; calling it again does nothing.
func (g *Gang) Close() {
	for _, c := range g.start {
		close(c)
	}
	g.start = nil
	g.wg.Wait()
}

func (g *Gang) worker(w int, start <-chan struct{}) {
	defer g.wg.Done()
	for range start {
		g.phase(w)
		if g.running.Add(-1) == 0 {
			g.done <- struct{}{}
		}
	}
}

// phase is worker w's share of one Run: its own units, then the
// unclaimed units of the others.
func (g *Gang) phase(w int) {
	for i := g.claim(w); i >= 0; i = g.claim(w) {
		if !g.runAt(i) {
			return
		}
	}
	for v := g.victim(w); v >= 0; v = g.victim(w) {
		if i := g.claim(v); i >= 0 && !g.runAt(i) {
			return
		}
	}
}

// claim takes the next unclaimed unit of worker v, -1 when none is left.
func (g *Gang) claim(v int) int {
	k := g.homes[v].next.Add(1) - 1
	if i := int64(v) + k*int64(len(g.homes)); i < int64(len(g.units)) {
		return int(i)
	}
	return -1
}

// victim is the worker other than w whose next unclaimed unit has the
// lowest index, -1 when every unit is claimed.
func (g *Gang) victim(w int) int {
	best, bestAt := -1, int64(len(g.units))
	for v := range g.homes {
		if v == w {
			continue
		}
		if i := int64(v) + g.homes[v].next.Load()*int64(len(g.homes)); i < bestAt {
			best, bestAt = v, i
		}
	}
	return best
}

// runAt runs unit i unless the phase is cancelled or a lower unit has
// failed, and reports whether the worker should go on. Units are claimed
// in ascending order per home, so a claim above the failed index means
// every later claim of that home is above it too; a unit below the failed
// index always runs, so the lowest-indexed failure is found whatever the
// scheduling.
func (g *Gang) runAt(i int) bool {
	if int64(i) > g.failedAt.Load() {
		return false
	}
	select {
	case <-g.cancel:
		return false
	default:
	}
	err := runUnit(g.ctx, g.units[i])
	g.errs[i] = err
	if err != nil {
		for f := g.failedAt.Load(); int64(i) < f; f = g.failedAt.Load() {
			if g.failedAt.CompareAndSwap(f, int64(i)) {
				break
			}
		}
	}
	if g.notify != nil {
		g.mu.Lock()
		g.finished++
		g.notify(Progress{Index: i, Done: g.finished, Total: len(g.units), Err: err})
		g.mu.Unlock()
	}
	return true
}

// runUnit invokes u, converting a panic into an error with the panicking
// goroutine's stack attached.
func runUnit(ctx context.Context, u Unit) (err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 8192)
			n := runtime.Stack(buf, false)
			err = fmt.Errorf("pool: unit panicked: %v\n%s", r, buf[:n])
		}
	}()
	return u(ctx)
}
