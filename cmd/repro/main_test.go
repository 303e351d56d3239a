package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/deeppower/deeppower/internal/exp"
)

func TestWriterCreatesArtifacts(t *testing.T) {
	dir := t.TempDir()
	w := &writer{dir: dir}
	tbl := &exp.Table{Title: "t", Columns: []string{"a"}}
	tbl.AddRow("1")
	if err := w.write(exp.Artifact{Name: "demo", Ext: "txt", Data: tbl.Render()}); err != nil {
		t.Fatal(err)
	}
	if err := w.write(exp.Artifact{Name: "demo", Ext: "csv", Data: "a\n1\n"}); err != nil {
		t.Fatal(err)
	}
	txt, err := os.ReadFile(filepath.Join(dir, "demo.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(txt), "1") {
		t.Error("table artifact missing content")
	}
	if _, err := os.Stat(filepath.Join(dir, "demo.csv")); err != nil {
		t.Error("csv artifact missing")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	// Every table and figure of the paper must have a harness entry. The
	// total entry count is deliberately NOT asserted here — that lives in
	// exactly one place, exp's TestRegistryShape (registrySize), so adding a
	// harness means updating one number, not hunting down stale copies.
	want := []string{
		"table1", "fig1", "fig2", "table2", "table3",
		"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"overhead",
	}
	have := map[string]bool{}
	for _, h := range exp.Harnesses() {
		have[h.Name] = true
		if h.Run == nil {
			t.Errorf("experiment %s has no runner", h.Name)
		}
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("missing experiment %q", name)
		}
	}
}

func TestCheapExperimentsRun(t *testing.T) {
	// The sampling-only experiments must run end-to-end at a tiny scale.
	dir := t.TempDir()
	w := &writer{dir: dir}
	scale := exp.Quick()
	scale.Samples = 2000
	for _, name := range []string{"fig1", "fig5", "fig6", "table1"} {
		h, err := exp.HarnessByName(name)
		if err != nil {
			t.Fatal(err)
		}
		arts, err := h.Run(context.Background(), scale, 2)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		for _, a := range arts {
			if err := w.write(a); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 4 {
		t.Errorf("only %d artifacts written", len(entries))
	}
}

func TestCancelledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"fig1", "fig5", "table2", "overhead"} {
		h, err := exp.HarnessByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Run(ctx, exp.Quick(), 2); err == nil {
			t.Errorf("%s: cancelled context did not abort the harness", name)
		}
	}
}

func TestTimingFileOnlyForWholeSuite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runner_timing.txt")
	w := &writer{dir: dir}
	if err := w.timing("suite", true); err != nil {
		t.Fatal(err)
	}
	if err := w.timing("one harness", false); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "suite" {
		t.Errorf("runner_timing.txt = %q, %v; a run with -only must leave the suite's record alone", got, err)
	}
}

func TestTimingTable(t *testing.T) {
	tbl := timingTable([]harnessTiming{
		{Name: "fig4", Elapsed: 120 * time.Millisecond, Artifacts: 2},
		{Name: "table3", Elapsed: 80 * time.Millisecond, Artifacts: 1},
	}, "quick", 4)
	for _, want := range []string{
		"scale=quick parallel=4", "fig4", "table3", "120ms", "80ms",
		"total", "200ms", // summed wall clock
	} {
		if !strings.Contains(tbl, want) {
			t.Errorf("timing table missing %q:\n%s", want, tbl)
		}
	}
}
