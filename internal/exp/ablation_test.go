package exp

import (
	"context"
	"testing"
)

func TestAblationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-variant training")
	}
	scale := Quick()
	scale.TrainEpisodes = 3
	// A representative subset keeps the test fast.
	var subset []AblationVariant
	for _, v := range AblationVariants {
		switch v.Name {
		case "deeppower", "flat-control", "dqn-power", "deeppower+c6":
			subset = append(subset, v)
		}
	}
	r, err := Ablation(context.Background(), scale, subset, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Results) != 4 {
		t.Fatalf("results = %d", len(r.Results))
	}
	for name, res := range r.Results {
		if res.AvgPowerW <= 0 || res.Counters.Completions == 0 {
			t.Errorf("%s: degenerate result", name)
		}
	}
	if r.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestGeneralizationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	scale := Quick()
	scale.TrainEpisodes = 8
	r, err := Generalization(context.Background(), scale, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scenarios) != 3 {
		t.Fatalf("scenarios = %v", r.Scenarios)
	}
	for _, sc := range r.Scenarios {
		if r.DeepPower[sc].Counters.Completions == 0 {
			t.Errorf("%s: no completions", sc)
		}
		// The frozen policy must still beat the baseline on power in
		// every unseen scenario.
		if sav := r.Saving(sc); sav <= 0 {
			t.Errorf("%s: no power saving (%.1f%%)", sc, sav*100)
		}
	}
	if r.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestCrossoverQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-method sweep")
	}
	scale := Quick()
	scale.TrainEpisodes = 4
	r, err := Crossover(context.Background(), scale, []string{MethodBaseline, MethodRetail, MethodRubik}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range r.Methods {
		if len(r.PowerW[m]) != len(r.Loads) {
			t.Fatalf("%s: %d power points", m, len(r.PowerW[m]))
		}
		// Power must rise with load for every method.
		for i := 1; i < len(r.PowerW[m]); i++ {
			if r.PowerW[m][i] < r.PowerW[m][i-1]*0.95 {
				t.Errorf("%s: power dropped with load: %v", m, r.PowerW[m])
			}
		}
	}
	// Baseline burns the most at every load level.
	for i := range r.Loads {
		for _, m := range []string{MethodRetail, MethodRubik} {
			if r.PowerW[m][i] >= r.PowerW[MethodBaseline][i] {
				t.Errorf("%s at load %v not below baseline", m, r.Loads[i])
			}
		}
	}
	if r.Table().Render() == "" {
		t.Error("empty table")
	}
}

func TestColocationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-method run")
	}
	scale := Quick()
	scale.TrainEpisodes = 8
	r, err := Colocation(context.Background(), scale, []string{MethodBaseline, MethodRetail, MethodDeepPower}, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := r.Results[MethodBaseline]
	retail := r.Results[MethodRetail]
	dp := r.Results[MethodDeepPower]
	if base.Counters.Completions == 0 || retail.Counters.Completions == 0 || dp.Counters.Completions == 0 {
		t.Fatal("degenerate colocation run")
	}
	// The offline-profiled predictor must suffer under the unseen
	// neighbor: more timeouts than the all-turbo baseline.
	if retail.TimeoutRate <= base.TimeoutRate {
		t.Errorf("retail timeout %v not above baseline %v under interference",
			retail.TimeoutRate, base.TimeoutRate)
	}
	if r.Table().Render() == "" {
		t.Error("empty table")
	}
}
