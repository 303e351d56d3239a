package exp

import (
	"context"
	"testing"

	"github.com/deeppower/deeppower/internal/app"
	"github.com/deeppower/deeppower/internal/fault"
	"github.com/deeppower/deeppower/internal/sim"
)

func robustnessScale() Scale {
	return Scale{
		Workers:       4,
		TrainEpisodes: 2,
		EvalDuration:  20 * sim.Second,
		TracePeriod:   10 * sim.Second,
		Samples:       2000,
		Seed:          1,
	}
}

// breakingPlan is an actuation-fault campaign hostile to fine-grained DVFS
// policies: most governor writes are lost and the survivors land tens of
// milliseconds late, so per-tick deadline boosting stops working. A policy
// that simply parks cores at max frequency is barely affected — once a
// write lands, no further writes are needed.
func breakingPlan(seed int64) fault.Plan { return WriteLossPlan(seed) }

// TestGuardRestoresTimeoutBudget is the robustness acceptance criterion:
// under the breaking scenario, bare DeepPower must violate the paper's
// Eq. 2 timeout budget (>1% timeouts), while the same trained policy
// wrapped in the guarded watchdog must restore TimeoutBudgetMet.
func TestGuardRestoresTimeoutBudget(t *testing.T) {
	sc := robustnessScale()
	sc.TrainEpisodes = 4
	sc.EvalDuration = 40 * sim.Second
	setup, err := NewSetup(app.Xapian, sc)
	if err != nil {
		t.Fatal(err)
	}
	// A looser SLA than the default profile: at this operating point the
	// diurnal peaks are servable at turbo, so a max-frequency fallback can
	// genuinely restore the budget, while a policy whose fine-grained DVFS
	// writes are being dropped still drowns in peak-hour timeouts.
	setup.Prof.SLA = 20 * sim.Millisecond
	plan := breakingPlan(11)

	bare, err := setup.BuildPolicy(MethodDeepPower)
	if err != nil {
		t.Fatal(err)
	}
	bareRes, err := setup.EvaluateUnderFaults(bare, plan)
	if err != nil {
		t.Fatal(err)
	}
	if bareRes.TimeoutBudgetMet {
		t.Fatalf("bare deeppower unexpectedly met the Eq.2 budget under faults "+
			"(timeout rate %.3f%%); the breaking scenario is too weak",
			bareRes.TimeoutRate*100)
	}

	inner, err := setup.BuildPolicy(MethodDeepPower)
	if err != nil {
		t.Fatal(err)
	}
	guard := fault.NewGuardedPolicy(inner, fault.GuardConfig{
		// Trip exactly at the paper's Eq. 2 budget, check frequently so the
		// first diurnal peak trips the guard early in its ramp, and make
		// safe mode sticky for the rest of the run: with actuation faults
		// this severe there is no reason to hand control back.
		TimeoutRateLimit: 0.01,
		CheckEvery:       10 * sim.Millisecond,
		MinSamples:       16,
		Backoff:          10 * sim.Minute,
	})
	guardRes, err := setup.EvaluateUnderFaults(guard, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !guardRes.TimeoutBudgetMet {
		t.Fatalf("guarded deeppower still violates Eq.2: timeout rate %.3f%% "+
			"(bare %.3f%%), guard stats %+v",
			guardRes.TimeoutRate*100, bareRes.TimeoutRate*100, guardRes.PolicyStats)
	}
	if guardRes.PolicyStats["guard.fallbacks"] == 0 {
		t.Error("guarded run met the budget without ever engaging safe mode; " +
			"the scenario no longer exercises the watchdog")
	}
	t.Logf("bare timeout %.3f%% -> guarded %.3f%% (fallbacks=%v, safe ticks=%v)",
		bareRes.TimeoutRate*100, guardRes.TimeoutRate*100,
		guardRes.PolicyStats["guard.fallbacks"], guardRes.PolicyStats["guard.safe_ticks"])
}

// TestRobustnessHarness smoke-tests the exp harness end to end at a tiny
// scale: one scenario, tables render, and every (method, bare/guarded)
// cell is populated.
func TestRobustnessHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("trains several policies")
	}
	scale := robustnessScale()
	scale.EvalDuration = 10 * sim.Second
	r, err := Robustness(context.Background(), scale, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scenarios) == 0 {
		t.Fatal("no scenarios ran")
	}
	for _, sc := range r.Scenarios {
		for _, m := range RobustnessMethods {
			if r.Bare[sc][m] == nil || r.Guarded[sc][m] == nil {
				t.Fatalf("missing result for %s/%s", sc, m)
			}
		}
	}
	tables := r.Tables()
	if len(tables) != len(r.Scenarios) {
		t.Fatalf("got %d tables for %d scenarios", len(tables), len(r.Scenarios))
	}
	for _, tb := range tables {
		if tb.Render() == "" || len(tb.Rows) != len(RobustnessMethods) {
			t.Fatalf("malformed table %q", tb.Title)
		}
	}
}
