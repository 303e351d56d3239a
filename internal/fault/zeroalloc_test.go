package fault

import (
	"testing"

	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// TestGuardHealthCheckZeroAlloc pins the guard's periodic health check at
// zero allocations: every 50 ms it takes the exact p99 of a one-second
// window that holds tens of thousands of completions at serving load, so a
// per-check copy of the window is megabytes of garbage per second.
func TestGuardHealthCheckZeroAlloc(t *testing.T) {
	g := NewGuardedPolicy(&server.BasePolicy{}, GuardConfig{})
	ctl := &fakeCtl{sla: 10 * sim.Millisecond, freqs: make([]cpu.Freq, 4), turbo: 2.8}
	g.Init(ctl)
	const n = 20000
	for i := 0; i < n; i++ {
		ctl.now += window / n
		lat := sim.Time(1+i*7919%1000) * sim.Microsecond
		g.OnComplete(&server.Request{Arrive: ctl.now - lat}, 0)
	}
	allocs := testing.AllocsPerRun(20, func() { g.checkHealth(ctl.now) })
	if g.win.len() != n || g.SafeMode() {
		t.Fatalf("check did not run on the full healthy window: %d samples, safe mode %v",
			g.win.len(), g.SafeMode())
	}
	if allocs != 0 {
		t.Errorf("health check allocates %.1f times per call, want 0", allocs)
	}
}

// TestGuardWindowSteadyStateZeroAlloc: once the health window's ring has
// grown to the window's high-water mark, a full window sliding through
// OnComplete and the periodic check allocates nothing. At serving load that
// is every completion the daemon admits.
func TestGuardWindowSteadyStateZeroAlloc(t *testing.T) {
	g := NewGuardedPolicy(&server.BasePolicy{}, GuardConfig{})
	ctl := &fakeCtl{sla: 10 * sim.Millisecond, freqs: make([]cpu.Freq, 4), turbo: 2.8}
	g.Init(ctl)
	const n = 20000 // completions per window
	req := &server.Request{}
	i := 0
	slide := func() { // one check period: n/20 completions, then the check
		for j := 0; j < n/20; j++ {
			ctl.now += window / n
			req.Arrive = ctl.now - sim.Time(1+i*7919%1000)*sim.Microsecond
			i++
			g.OnComplete(req, 0)
		}
		g.checkHealth(ctl.now)
	}
	for k := 0; k < 40; k++ { // two windows: the ring reaches its high-water mark
		slide()
	}
	allocs := testing.AllocsPerRun(40, slide)
	if g.win.len() < n-1 || g.SafeMode() {
		t.Fatalf("window did not slide full and healthy: %d samples, safe mode %v", g.win.len(), g.SafeMode())
	}
	if allocs != 0 {
		t.Errorf("sliding the window allocates %.1f times per check period, want 0", allocs)
	}
}
