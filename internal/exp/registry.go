package exp

import (
	"context"
	"fmt"
)

// Artifact is one rendered output of a harness: a text table or a CSV,
// identified by the base file name cmd/repro writes it under.
type Artifact struct {
	// Name is the artifact's base file name, without extension.
	Name string
	// Ext is "txt" for aligned text tables or "csv".
	Ext string
	// Data is the rendered content.
	Data string
}

func tableArtifact(name string, t *Table) Artifact {
	return Artifact{Name: name, Ext: "txt", Data: t.Render()}
}

func csvArtifact(name, data string) Artifact {
	return Artifact{Name: name, Ext: "csv", Data: data}
}

// Harness is one registered experiment: a named generator of artifacts.
// Run executes the experiment's (policy × app × seed) grid on up to workers
// concurrent pool workers and returns artifacts in a fixed, declared order.
type Harness struct {
	// Name is the registry key (-only flag, test names).
	Name string
	// Run produces the harness's artifacts.
	Run func(ctx context.Context, scale Scale, workers int) ([]Artifact, error)
}

// result is what every harness entry point returns: a result that renders
// its own named artifacts.
type result interface{ Artifacts() []Artifact }

// harness registers an entry point under name. A cancelled context runs
// nothing.
func harness[R result](name string, run func(context.Context, Scale, int) (R, error)) Harness {
	return Harness{Name: name, Run: func(ctx context.Context, scale Scale, workers int) ([]Artifact, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := run(ctx, scale, workers)
		if err != nil {
			return nil, err
		}
		return r.Artifacts(), nil
	}}
}

// Harnesses returns every registered experiment in the paper's order. The
// registry is the single source of truth shared by cmd/repro, the golden
// tests, and the suite benchmarks. Entry points with a subset parameter
// that only tests narrow get their full default here.
func Harnesses() []Harness {
	return []Harness{
		harness("table1", Table1),
		harness("fig1", Fig1),
		harness("fig2", Fig2),
		harness("table2", func(context.Context, Scale, int) (*Table2Result, error) { return Table2(5000) }),
		harness("table3", Table3),
		harness("fig4", Fig4),
		harness("fig5", Fig5),
		harness("fig6", Fig6),
		harness("fig7", func(c context.Context, s Scale, w int) (*Fig7Result, error) { return Fig7(c, s, nil, w) }),
		harness("fig8", Fig8),
		harness("fig9", Fig9),
		harness("fig10", Fig10),
		harness("fig11", Fig11),
		harness("overhead", Overhead),
		harness("ablation", func(c context.Context, s Scale, w int) (*AblationResult, error) { return Ablation(c, s, nil, w) }),
		harness("generalization", Generalization),
		harness("crossover", func(c context.Context, s Scale, w int) (*CrossoverResult, error) { return Crossover(c, s, nil, w) }),
		harness("colocation", func(c context.Context, s Scale, w int) (*ColocationResult, error) { return Colocation(c, s, nil, w) }),
		harness("robustness", Robustness),
		harness("policylife", PolicyLife),
		harness("fleet", Fleet),
		harness("vectrain", VecTrain),
		harness("dagserve", DAGServe),
		harness("heteroplace", HeteroPlace),
	}
}

// HarnessByName looks up one registered harness.
func HarnessByName(name string) (Harness, error) {
	for _, h := range Harnesses() {
		if h.Name == name {
			return h, nil
		}
	}
	return Harness{}, fmt.Errorf("exp: unknown harness %q", name)
}
