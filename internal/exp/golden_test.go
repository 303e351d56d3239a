package exp

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden regenerates the committed golden artifacts at workers = 1,
// the serial output every parallel run must reproduce:
//
//	go test ./internal/exp -run 'SerialParallelEquivalence' -update-golden
//
// The goldens pin the repository's numerics: performance work on the hot
// paths (batched kernels, scratch arenas, the worker pool) must change
// speed, not results. Only regenerate after a change that intentionally
// alters experiment numerics.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden artifacts")

// goldenRoot holds one directory of goldens per registered harness, plus
// fleetGoldenDir.
var goldenRoot = filepath.Join("testdata", "golden")

// fleetGoldenDir holds the fleet harness's goldens at full fleet width
// (fleetTestScale), the width where epoch batches span many pool units.
const fleetGoldenDir = "fleet100"

// wallClockHarnesses embed measured host time in their artifacts. Their
// goldens pin the title, the header and the line count, not the bytes.
var wallClockHarnesses = map[string]bool{"table2": true, "overhead": true, "vectrain": true}

// checkGolden runs h once and compares its artifacts with the goldens in
// testdata/golden/dir. The comparison run uses eight workers; with
// -update-golden the run uses one and rewrites the directory.
func checkGolden(t *testing.T, h Harness, scale Scale, dir string) {
	t.Helper()
	workers := 8
	if *updateGolden {
		workers = 1
	}
	arts, err := h.Run(context.Background(), scale, workers)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) == 0 {
		t.Fatal("harness produced no artifacts")
	}
	dir = filepath.Join(goldenRoot, dir)
	if *updateGolden {
		writeGoldens(t, dir, arts)
		return
	}
	for _, d := range goldenDiffs(dir, arts, wallClockHarnesses[h.Name]) {
		t.Error(d)
	}
}

func goldenFile(a Artifact) string { return a.Name + "." + a.Ext + ".golden" }

// writeGoldens replaces dir with exactly arts' goldens, so an artifact a
// harness no longer emits leaves no stale file behind.
func writeGoldens(t *testing.T, dir string, arts []Artifact) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, a := range arts {
		if err := os.WriteFile(filepath.Join(dir, goldenFile(a)), []byte(a.Data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// goldenDiffs lists every way arts disagree with the goldens in dir: an
// artifact whose golden is missing or differs (in shape only, when
// shapeOnly), and a golden no artifact was emitted for.
func goldenDiffs(dir string, arts []Artifact, shapeOnly bool) []string {
	var diffs []string
	emitted := make(map[string]bool, len(arts))
	for _, a := range arts {
		file := goldenFile(a)
		emitted[file] = true
		want, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			diffs = append(diffs, fmt.Sprintf("missing golden (run with -update-golden): %v", err))
			continue
		}
		if shapeOnly {
			if err := sameShape(a.Data, string(want)); err != nil {
				diffs = append(diffs, fmt.Sprintf("%s shape drifted from golden: %v", file, err))
			}
			continue
		}
		if a.Data != string(want) {
			diffs = append(diffs, fmt.Sprintf("%s drifted from golden:\n%s", file, firstDiff(a.Data, string(want))))
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return append(diffs, err.Error())
	}
	for _, e := range entries {
		if !emitted[e.Name()] {
			diffs = append(diffs, fmt.Sprintf("golden %s was not emitted (regenerate with -update-golden)", e.Name()))
		}
	}
	return diffs
}

// readGoldens loads dir's goldens back as the artifacts they record.
func readGoldens(t *testing.T, dir string) []Artifact {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var arts []Artifact
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		base := strings.TrimSuffix(e.Name(), ".golden")
		dot := strings.LastIndexByte(base, '.')
		arts = append(arts, Artifact{Name: base[:dot], Ext: base[dot+1:], Data: string(data)})
	}
	return arts
}

// sameShape asserts two renderings of a titled table have the same title,
// header and line count — the stability contract for wall-clock artifacts.
func sameShape(a, b string) error {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	if len(la) != len(lb) {
		return fmt.Errorf("line count %d vs %d", len(la), len(lb))
	}
	for i := 0; i < 2 && i < len(la); i++ {
		if la[i] != lb[i] {
			return fmt.Errorf("line %d: %q vs %q", i+1, la[i], lb[i])
		}
	}
	return nil
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(got, want string) string {
	lg, lw := strings.Split(got, "\n"), strings.Split(want, "\n")
	n := min(len(lg), len(lw))
	for i := 0; i < n; i++ {
		if lg[i] != lw[i] {
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i+1, lg[i], lw[i])
		}
	}
	return fmt.Sprintf("line counts differ: %d vs %d", len(lg), len(lw))
}

// TestGoldenArtifacts pins the golden tree itself without running a
// harness: every directory under testdata/golden belongs to a registered
// harness (or is fleetGoldenDir), so a harness that leaves the registry
// cannot leave its goldens behind; and each owner's directory, one subtest
// per owner, exists and holds only non-empty, well-named goldens, so a
// harness that joins the registry cannot go unpinned.
func TestGoldenArtifacts(t *testing.T) {
	owners := []string{fleetGoldenDir}
	for _, h := range Harnesses() {
		owners = append(owners, h.Name)
	}
	owned := make(map[string]bool, len(owners))
	for _, name := range owners {
		owned[name] = true
	}
	entries, err := os.ReadDir(goldenRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !owned[e.Name()] {
			t.Errorf("testdata/golden/%s belongs to no registered harness", e.Name())
		}
	}
	for _, name := range owners {
		t.Run(name, func(t *testing.T) {
			for _, d := range goldenDirDiffs(filepath.Join(goldenRoot, name)) {
				t.Error(d)
			}
		})
	}
}

// goldenDirDiffs lists every way dir falls short of a golden directory: it
// is missing or empty, or holds an entry that is not a non-empty regular
// file named <artifact>.<ext>.golden.
func goldenDirDiffs(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return []string{fmt.Sprintf("no goldens (run with -update-golden): %v", err)}
	}
	if len(entries) == 0 {
		return []string{fmt.Sprintf("%s holds no goldens (run with -update-golden)", dir)}
	}
	var diffs []string
	for _, e := range entries {
		base, ok := strings.CutSuffix(e.Name(), ".golden")
		dot := strings.LastIndexByte(base, '.')
		if !ok || !e.Type().IsRegular() || dot <= 0 || dot == len(base)-1 {
			diffs = append(diffs, fmt.Sprintf("%s is not an <artifact>.<ext>.golden file", e.Name()))
			continue
		}
		if info, err := e.Info(); err != nil || info.Size() == 0 {
			diffs = append(diffs, fmt.Sprintf("golden %s is empty or unreadable", e.Name()))
		}
	}
	return diffs
}

// TestGoldenCatchesDroppedArtifact shows the golden comparison notices a
// harness that stops emitting one of its artifacts: fig7's goldens replayed
// without fig7c_quality must fail on exactly that file.
func TestGoldenCatchesDroppedArtifact(t *testing.T) {
	dir := filepath.Join(goldenRoot, "fig7")
	arts := readGoldens(t, dir)
	if diffs := goldenDiffs(dir, arts, false); len(diffs) != 0 {
		t.Fatalf("fig7's own goldens do not match themselves: %v", diffs)
	}
	var kept []Artifact
	for _, a := range arts {
		if a.Name != "fig7c_quality" {
			kept = append(kept, a)
		}
	}
	if len(kept) != len(arts)-1 {
		t.Fatalf("fig7 goldens hold no fig7c_quality: %v", arts)
	}
	diffs := goldenDiffs(dir, kept, false)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "fig7c_quality.txt.golden was not emitted") {
		t.Errorf("dropping fig7c_quality reported %q, want one not-emitted failure", diffs)
	}
}
