package app

import (
	"strings"
	"testing"

	"github.com/deeppower/deeppower/internal/sim"
)

// TestDAGValidate table-drives the graph validator over malformed graphs.
func TestDAGValidate(t *testing.T) {
	s := func(preds ...int) DAGStage {
		return DAGStage{Name: "s", Sampler: FixedSampler{Service: sim.Millisecond}, Preds: preds}
	}
	cases := []struct {
		name    string
		stages  []DAGStage
		wantErr string
	}{
		{"empty", nil, "no stages"},
		{"nil sampler", []DAGStage{{Name: "s"}}, "nil sampler"},
		{"dangling low", []DAGStage{s(-1)}, "dangling"},
		{"dangling high", []DAGStage{s(7)}, "dangling"},
		{"self loop", []DAGStage{s(0)}, "self-loop"},
		{"duplicate pred", []DAGStage{s(), s(0, 0)}, "duplicate"},
		{"two cycle", []DAGStage{s(1), s(0)}, "cycle"},
		{"three cycle", []DAGStage{s(), s(2), s(1)}, "cycle"},
		{"single stage", []DAGStage{s()}, ""},
		{"diamond", []DAGStage{s(), s(0), s(0), s(1, 2)}, ""},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			d := &DAG{Name: tc.name, Stages: tc.stages}
			err := d.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestDAGDerivedViews checks the precomputed roots/successors/order on the
// diamond graph.
func TestDAGDerivedViews(t *testing.T) {
	d, err := ParseDAG("diamond", "gate(500us); auth(1ms):gate; search(2ms):gate; merge(1ms):auth,search")
	if err != nil {
		t.Fatal(err)
	}
	if d.NumStages() != 4 {
		t.Fatalf("stages = %d", d.NumStages())
	}
	if got := d.Roots(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("roots = %v", got)
	}
	if got := d.Succs(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("succs(0) = %v", got)
	}
	if got := d.Preds(3); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("preds(3) = %v", got)
	}
	if w := d.Stages[2].Sampler.Sample(nil); w.ServiceRef != 2*sim.Millisecond {
		t.Fatalf("parsed duration = %v", w.ServiceRef)
	}
}

// TestRevalidateLeavesDAGUntouched: validating an unchanged DAG again — as
// every server built from its profile does — writes nothing, so concurrent
// server construction only reads a shared DAG. A changed DAG is re-derived.
func TestRevalidateLeavesDAGUntouched(t *testing.T) {
	d, err := ParseDAG("diamond", "gate(500us); auth(1ms):gate; search(2ms):gate; merge(1ms):auth,search")
	if err != nil {
		t.Fatal(err)
	}
	succs, roots := d.succs, d.roots
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if &d.succs[0] != &succs[0] || &d.roots[0] != &roots[0] {
		t.Error("re-validating an unchanged DAG replaced its derived views")
	}
	d.Stages[3].Preds = []int{2}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := d.Succs(1); len(got) != 0 {
		t.Errorf("after dropping edge auth→merge, succs(1) = %v", got)
	}
}

// TestParseDAGErrors covers the parser's rejection paths.
func TestParseDAGErrors(t *testing.T) {
	cases := []struct {
		spec, wantErr string
	}{
		{"", "no stages"},
		{" ; \n ", "no stages"},
		{"a; a", "duplicate stage"},
		{"a; b:c", "unknown predecessor"},
		{"a; b:", "empty predecessor"},
		{"a; b:a,,a", "empty predecessor"},
		{"a(", "unterminated duration"},
		{"a(1ms", "unterminated duration"},
		{"a(xyz)", "bad duration"},
		{"a(-1ms)", "bad duration"},
		{"a(0s)", "bad duration"},
		{"(1ms)", "unnamed stage"},
		{"a; b:b", "unknown predecessor"}, // forward/self references can't resolve
	}
	for _, tc := range cases {
		if _, err := ParseDAG("t", tc.spec); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ParseDAG(%q) = %v, want error containing %q", tc.spec, err, tc.wantErr)
		}
	}
}

// TestParseDAGSingleStage covers the degenerate one-stage graph: no edges,
// default duration, trivially valid.
func TestParseDAGSingleStage(t *testing.T) {
	d, err := ParseDAG("one", "only")
	if err != nil {
		t.Fatal(err)
	}
	if d.NumStages() != 1 || len(d.Roots()) != 1 || len(d.Succs(0)) != 0 {
		t.Fatalf("degenerate graph views: stages=%d roots=%v succs=%v",
			d.NumStages(), d.Roots(), d.Succs(0))
	}
	if w := d.Stages[0].Sampler.Sample(nil); w.ServiceRef != sim.Millisecond {
		t.Fatalf("default duration = %v", w.ServiceRef)
	}
}

// TestMeanTotalServiceDeterministic pins the capacity estimate: positive,
// seed-stable, and at least the sum of fixed stage durations.
func TestMeanTotalServiceDeterministic(t *testing.T) {
	d, err := ParseDAG("m", "a(1ms); b(2ms):a; c(3ms):b")
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := d.MeanTotalService(7, 500), d.MeanTotalService(7, 500)
	if m1 != m2 {
		t.Fatalf("not seed-stable: %v vs %v", m1, m2)
	}
	if m1 != 6*sim.Millisecond {
		t.Fatalf("fixed-sampler mean = %v, want 6ms", m1)
	}
}

// FuzzParseDAG throws arbitrary specs at the parser. Invariants: never
// panics, and anything accepted is a well-formed acyclic graph — Validate
// holds (and is idempotent), every stage has a sampler, roots are non-empty,
// and predecessor edges only point at earlier stages (the forward-reference-
// free text form cannot express a cycle).
func FuzzParseDAG(f *testing.F) {
	f.Add("gate(500us); auth(1ms):gate; search(2ms):gate; merge(1ms):auth,search")
	f.Add("only")
	f.Add("a; b:a\nc(250us):a,b")
	f.Add("a; a")     // duplicate stage name
	f.Add("x:y")      // dangling predecessor
	f.Add("a(")       // unterminated duration
	f.Add("a(10h):a") // self reference
	f.Add("; ; ;")    // empty
	f.Add("a(1ns); b(1000h):a")
	f.Fuzz(func(t *testing.T, spec string) {
		d, err := ParseDAG("fuzz", spec)
		if err != nil {
			return
		}
		if d.NumStages() == 0 {
			t.Fatal("accepted an empty graph")
		}
		if len(d.Roots()) == 0 {
			t.Fatal("accepted a graph with no roots")
		}
		seen := make(map[string]bool, d.NumStages())
		for i, st := range d.Stages {
			if st.Sampler == nil {
				t.Fatalf("stage %d: nil sampler", i)
			}
			if st.Name == "" || seen[st.Name] {
				t.Fatalf("stage %d: empty or duplicate name %q", i, st.Name)
			}
			seen[st.Name] = true
			for _, p := range st.Preds {
				if p < 0 || p >= i {
					t.Fatalf("stage %d: non-forward predecessor %d", i, p)
				}
			}
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("re-Validate failed on an accepted graph: %v", err)
		}
	})
}
