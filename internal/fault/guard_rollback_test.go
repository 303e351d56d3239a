package fault

import (
	"bytes"
	"testing"

	"github.com/deeppower/deeppower/internal/ckpt"
	"github.com/deeppower/deeppower/internal/cpu"
	"github.com/deeppower/deeppower/internal/rl"
	"github.com/deeppower/deeppower/internal/server"
	"github.com/deeppower/deeppower/internal/sim"
)

// fakeCtl is the minimal Control surface the guard itself touches. The nil
// embedded interface panics on any other method, catching accidental use.
type fakeCtl struct {
	server.Control
	now   sim.Time
	sla   sim.Time
	freqs []cpu.Freq
	turbo cpu.Freq
}

func (f *fakeCtl) Now() sim.Time              { return f.now }
func (f *fakeCtl) NumCores() int              { return len(f.freqs) }
func (f *fakeCtl) SLA() sim.Time              { return f.sla }
func (f *fakeCtl) Ladder() cpu.Ladder         { return cpu.Ladder{Min: 0.8, Max: 2.1, Turbo: f.turbo} }
func (f *fakeCtl) Freq(i int) cpu.Freq        { return f.freqs[i] }
func (f *fakeCtl) SetTurbo(i int)             { f.freqs[i] = f.turbo }
func (f *fakeCtl) SetFreq(i int, fr cpu.Freq) { f.freqs[i] = fr }
func (f *fakeCtl) Topology() *cpu.Topology    { return nil }

// rollbackGuardConfig is shared by the ladder tests: checks every 10 ms over
// the 1 s window, trips at a 10% timeout rate after 4 samples.
func rollbackGuardConfig(hook func() bool, maxRollbacks int) GuardConfig {
	return GuardConfig{
		CheckEvery:       10 * sim.Millisecond,
		TimeoutRateLimit: 0.10,
		MinSamples:       4,
		Rollback:         hook,
		MaxRollbacks:     maxRollbacks,
	}
}

// feed pushes n completions with the given latency and advances virtual time
// past the next health check.
func feed(g *GuardedPolicy, ctl *fakeCtl, n int, latency sim.Time) {
	for i := 0; i < n; i++ {
		ctl.now += sim.Millisecond
		g.OnComplete(&server.Request{Arrive: ctl.now - latency}, 0)
	}
	ctl.now += 10 * sim.Millisecond
	g.OnTick(ctl.now)
}

// TestGuardEscalationLadder walks the full ladder: healthy → breach →
// rollback (engaged) → breach → rollback → breach with the budget exhausted
// → max-frequency safe mode.
func TestGuardEscalationLadder(t *testing.T) {
	hookCalls := 0
	g := NewGuardedPolicy(&server.BasePolicy{}, rollbackGuardConfig(func() bool {
		hookCalls++
		return true
	}, 2))
	ctl := &fakeCtl{sla: 10 * sim.Millisecond, freqs: make([]cpu.Freq, 3), turbo: 2.8}
	g.Init(ctl)

	// Healthy traffic: no intervention.
	feed(g, ctl, 8, 2*sim.Millisecond)
	if g.SafeMode() || hookCalls != 0 {
		t.Fatalf("healthy window tripped the guard: safe=%v hook=%d", g.SafeMode(), hookCalls)
	}

	// First breach → rollback rung, guard stays engaged.
	feed(g, ctl, 8, 50*sim.Millisecond)
	if hookCalls != 1 || g.SafeMode() {
		t.Fatalf("first breach: hook=%d safe=%v, want rollback while engaged", hookCalls, g.SafeMode())
	}
	st := g.Stats()
	if st.Rollbacks != 1 || st.Fallbacks != 0 {
		t.Fatalf("stats after first breach: %+v", st)
	}
	last := g.Transitions[len(g.Transitions)-1]
	if !last.RolledBack || last.ToSafe {
		t.Fatalf("transition not recorded as rollback: %+v", last)
	}
	if last.WindowTimeoutRate == 0 {
		t.Fatal("rollback transition lost its health-window reading")
	}

	// Second breach → second (final budgeted) rollback.
	feed(g, ctl, 8, 50*sim.Millisecond)
	if hookCalls != 2 || g.SafeMode() {
		t.Fatalf("second breach: hook=%d safe=%v", hookCalls, g.SafeMode())
	}

	// Third breach: rollback budget exhausted → safe mode, turbo pinned.
	feed(g, ctl, 8, 50*sim.Millisecond)
	if hookCalls != 2 {
		t.Fatalf("hook called past MaxRollbacks: %d", hookCalls)
	}
	if !g.SafeMode() {
		t.Fatal("exhausted rollback budget did not escalate to safe mode")
	}
	g.OnTick(ctl.now + sim.Millisecond)
	for i, f := range ctl.freqs {
		if f != ctl.turbo {
			t.Fatalf("core %d not pinned at turbo in safe mode: %v", i, f)
		}
	}
	st = g.Stats()
	if st.Rollbacks != 2 || st.Fallbacks != 1 {
		t.Fatalf("final stats: %+v", st)
	}
}

// TestGuardRollbackHookFailureEscalates checks a failing hook (no earlier
// version to fall back to) sends the guard straight to safe mode.
func TestGuardRollbackHookFailureEscalates(t *testing.T) {
	g := NewGuardedPolicy(&server.BasePolicy{}, rollbackGuardConfig(func() bool { return false }, 3))
	ctl := &fakeCtl{sla: 10 * sim.Millisecond, freqs: make([]cpu.Freq, 2), turbo: 2.8}
	g.Init(ctl)

	feed(g, ctl, 8, 50*sim.Millisecond)
	if !g.SafeMode() {
		t.Fatal("failed rollback hook did not escalate to safe mode")
	}
	st := g.Stats()
	if st.Rollbacks != 0 || st.Fallbacks != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestGuardRollbackBudgetResets checks a rolled-back policy that survives a
// full healthy window earns its rollback budget back.
func TestGuardRollbackBudgetResets(t *testing.T) {
	hookCalls := 0
	g := NewGuardedPolicy(&server.BasePolicy{}, rollbackGuardConfig(func() bool {
		hookCalls++
		return true
	}, 1))
	ctl := &fakeCtl{sla: 10 * sim.Millisecond, freqs: make([]cpu.Freq, 2), turbo: 2.8}
	g.Init(ctl)

	// Breach → the single budgeted rollback.
	feed(g, ctl, 8, 50*sim.Millisecond)
	if hookCalls != 1 || g.SafeMode() {
		t.Fatalf("hook=%d safe=%v", hookCalls, g.SafeMode())
	}

	// Healthy window with enough samples → budget resets.
	feed(g, ctl, 8, 2*sim.Millisecond)
	if g.rollbacks != 0 {
		t.Fatalf("healthy window did not reset the rollback budget: %d", g.rollbacks)
	}

	// A later breach may roll back again rather than pinning frequency.
	feed(g, ctl, 8, 50*sim.Millisecond)
	if hookCalls != 2 || g.SafeMode() {
		t.Fatalf("post-reset breach: hook=%d safe=%v", hookCalls, g.SafeMode())
	}
}

// TestRegistryRollbackHook wires a real checkpoint registry to a real DDPG
// agent: the hook demotes the registry's current version and loads the
// previous policy's weights, and reports false once no fallback remains.
func TestRegistryRollbackHook(t *testing.T) {
	reg, err := ckpt.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := rl.DDPGConfig{StateDim: 3, ActionDim: 2}

	putPolicy := func(seed int64) *rl.ActorCritic {
		c := cfg
		c.Seed = seed
		d, err := rl.NewDDPG(c)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := d.SavePolicy(&buf); err != nil {
			t.Fatal(err)
		}
		v, err := reg.Put(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Promote(v); err != nil {
			t.Fatal(err)
		}
		return d
	}

	good := putPolicy(1) // v1: the known-good policy
	putPolicy(2)         // v2: the "regressed" current policy

	target, err := rl.NewDDPG(rl.DDPGConfig{StateDim: 3, ActionDim: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hook := RegistryRollback(reg, target)

	if !hook() {
		t.Fatal("rollback hook failed with a fallback version available")
	}
	if v, err := reg.Current(); err != nil || v != 1 {
		t.Fatalf("registry current after rollback: v%d err %v", v, err)
	}
	probe := []float64{0.3, 0.6, 0.9}
	want, got := good.Act(probe), target.Act(probe)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("rolled-back policy action[%d] %v != v1 policy %v", i, got[i], want[i])
		}
	}

	// v1 is the only remaining history entry: no further fallback.
	if hook() {
		t.Fatal("rollback hook succeeded with nothing to fall back to")
	}
}
