// Package pool provides a bounded worker pool for running independent
// experiment work units concurrently while keeping results deterministic.
//
// The contract every caller in internal/exp relies on: units must be
// self-contained (no RNG, engine, server, or agent state shared between
// units) and results must be assembled by unit index, never by completion
// order. Under that contract a grid executed with N workers produces output
// byte-identical to the same grid executed serially — the property
// internal/exp's serial/parallel equivalence tests enforce.
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
// error rather than crashing the process. After the first failure no new
// units are dispatched; in-flight units run to completion.
func Run(ctx context.Context, units []Unit, workers int) error {
	return RunNotify(ctx, units, workers, nil)
}

// RunNotify is Run with a per-unit completion callback. notify may be nil.
// Callbacks are invoked serially under the pool's lock, so they may touch
// shared state without further synchronization.
func RunNotify(ctx context.Context, units []Unit, workers int, notify func(Progress)) error {
	if len(units) == 0 {
		return ctx.Err()
	}
	workers = Clamp(workers)
	if workers > len(units) {
		workers = len(units)
	}

	var (
		mu   sync.Mutex
		done int
		// failedAt is the lowest index that has failed, len(units) while
		// none has. Written under mu.
		failedAt atomic.Int64
	)
	failedAt.Store(int64(len(units)))
	errs := make([]error, len(units))
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				// The dispatcher may already be committed to handing out a
				// unit when an earlier one fails; it is not started. A unit
				// below the failed index always is, so the lowest-indexed
				// failure is found whatever the scheduling.
				if int64(i) > failedAt.Load() {
					continue
				}
				err := runUnit(ctx, units[i])
				mu.Lock()
				errs[i] = err
				done++
				if err != nil && int64(i) < failedAt.Load() {
					failedAt.Store(int64(i))
				}
				if notify != nil {
					notify(Progress{Index: i, Done: done, Total: len(units), Err: err})
				}
				mu.Unlock()
			}
		}()
	}

dispatch:
	for i := range units {
		if failedAt.Load() < int64(len(units)) {
			break
		}
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
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
