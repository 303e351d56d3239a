package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// specFile is the benchmark's contract, at the root of the checkout the
// benchmark runs from. It is the only place metric names, units and bounds
// are declared: the program looks every value it emits up in it, so a value
// nobody declared and a declaration nobody filled both fail a check.
const specFile = "BENCHMARK.json"

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w (run from the repository root)", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	for _, m := range s.EndToEnd {
		if m.Bound == nil {
			return nil, fmt.Errorf("bench: %s: end-to-end metric %s has no bound", path, m.Name)
		}
	}
	return &s, nil
}

// metric is one emitted value with the unit its declaration gives it.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// values collects what a run measured, by metric name.
type values map[string]float64

// emit pairs the declared metrics with the measured values, in declared
// order, and reports the mismatches between the two sets plus any value that
// is not a finite non-negative number (output check 5).
func emit(declared []metricSpec, got values) ([]metric, []check) {
	out := make([]metric, 0, len(declared))
	var missing, bad []string
	seen := map[string]bool{}
	for _, d := range declared {
		seen[d.Name] = true
		v, ok := got[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			bad = append(bad, fmt.Sprintf("%s=%v", d.Name, v))
		}
		out = append(out, metric{Name: d.Name, Value: v, Unit: d.Unit})
	}
	var extra []string
	for name := range got {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	return out, []check{
		{"declared metrics all emitted", len(missing) == 0, fmt.Sprint("missing ", missing)},
		{"emitted metrics all declared", len(extra) == 0, fmt.Sprint("undeclared ", extra)},
		{"metrics finite and non-negative", len(bad) == 0, fmt.Sprint(bad)},
	}
}

// check is one output check: it must hold on any machine at any speed.
type check struct {
	name   string
	ok     bool
	detail string // shown only when the check fails
}

func allOK(checks []check) bool {
	for _, c := range checks {
		if !c.ok {
			return false
		}
	}
	return true
}
