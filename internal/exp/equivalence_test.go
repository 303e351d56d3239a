package exp

import (
	"context"
	"testing"

	"github.com/deeppower/deeppower/internal/sim"
)

// equivScale is Quick with the expensive knobs turned down: the
// serial/parallel determinism contract does not depend on how long the
// simulations run, so the golden suite uses short episodes to keep one
// full registry execution CI-friendly.
func equivScale() Scale {
	s := Quick()
	s.TrainEpisodes = 1
	s.EvalDuration = 12 * sim.Second
	s.TracePeriod = 10 * sim.Second
	s.Samples = 2000
	return s
}

// TestSerialParallelEquivalence is the determinism contract behind
// cmd/repro -parallel: every registered harness, run once with workers = 8,
// must render the bytes its workers = 1 golden records (title, header and
// line count only for wallClockHarnesses). The golden is the serial run.
func TestSerialParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry")
	}
	for _, h := range Harnesses() {
		h := h
		t.Run(h.Name, func(t *testing.T) { checkGolden(t, h, equivScale(), h.Name) })
	}
}

// TestHarnessRunsAreSeedStable asserts a deterministic harness renders the
// same artifacts when executed twice in one process with the same seed.
func TestHarnessRunsAreSeedStable(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated harness runs")
	}
	scale := equivScale()
	// A cheap deterministic subset: sampling-only, a simulation grid, and a
	// pooled frequency-trace harness.
	for _, name := range []string{"fig1", "table3", "fig11"} {
		h, err := HarnessByName(name)
		if err != nil {
			t.Fatal(err)
		}
		first, err := h.Run(context.Background(), scale, 4)
		if err != nil {
			t.Fatal(err)
		}
		second, err := h.Run(context.Background(), scale, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(first) != len(second) {
			t.Fatalf("%s: artifact count changed between runs", name)
		}
		for i := range first {
			if first[i].Data != second[i].Data {
				t.Errorf("%s: artifact %s not stable across same-seed runs:\n%s",
					name, first[i].Name, firstDiff(first[i].Data, second[i].Data))
			}
		}
	}
}
