package exp

import "context"

// Table1Result is the paper's qualitative comparison of DeepPower against
// prior methods (Table 1).
type Table1Result struct{ *Table }

// Table1 reproduces Table 1: which methods are workload-aware, what
// granularity they control at, whether they need manual feature
// engineering, and the policy family. Static by nature; rendered for
// completeness so every table in the paper has a regeneration target.
func Table1(context.Context, Scale, int) (*Table1Result, error) {
	t := &Table{
		Title: "Table 1 — comparison of DeepPower and other methods",
		Columns: []string{
			"method", "workload-aware", "granularity", "needs features", "policy",
		},
	}
	t.AddRow("Rubik", "no", "per request", "no (distribution tail)", "statistical heuristic")
	t.AddRow("Gemini", "no", "per request (two-stage)", "yes (NN prediction)", "heuristic boost")
	t.AddRow("ReTail", "no", "per request", "yes (linear regression)", "min-frequency search")
	t.AddRow("DeepPower", "yes (DRL feedback)", "per millisecond (hierarchical)", "no", "learned (DDPG)")
	return &Table1Result{t}, nil
}

// Artifacts renders the comparison table.
func (r *Table1Result) Artifacts() []Artifact {
	return []Artifact{tableArtifact("table1_method_comparison", r.Table)}
}
