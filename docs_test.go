package deeppower

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docsHistorical lists, per document, the back-quoted references that are
// allowed to name something the tree no longer holds: rows of before/after
// tables that record what a past PR removed. Nothing else is exempt — a
// reference to a file, artifact or test that does not exist is a stale
// document.
var docsHistorical = map[string][]string{
	// The before/after table of the learner files folded into
	// internal/rl/actorcritic.go, and the fences that held when the learner
	// stopped computing unread gradients (the resume test among them went
	// with the trainer-state codec).
	"EXPERIMENTS.md": {"internal/rl/ddpg.go", "td3.go", "sac.go", "backend.go", "TestBitwiseResumeEquivalence"},
}

var (
	docSpan     = regexp.MustCompile("`([^`\\s]+)`")
	docGoFile   = regexp.MustCompile(`^[\w./*-]+\.go$`)
	docArtifact = regexp.MustCompile(`^[\w./*-]+\.(txt|csv|json)$`)
	docTestName = regexp.MustCompile(`^((?:Test|Benchmark|Fuzz|Example)[A-Z]\w*)(\*)?(/.*)?$`)
	docTestFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
)

// TestDocsNameWhatExists checks every back-quoted Go file, results artifact
// and test, benchmark, fuzz or example name in the prose documents against
// the tree. Paths and names may be globs (`results/fig9_freq_*.csv`,
// `BenchmarkOverhead*`); a sub-benchmark path is checked by its function.
func TestDocsNameWhatExists(t *testing.T) {
	var files []string // every file, slash-separated, relative to the root
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name[0] == '.' || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		files = append(files, filepath.ToSlash(p))
		if strings.HasSuffix(p, "_test.go") {
			src, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			for _, m := range docTestFunc.FindAllSubmatch(src, -1) {
				funcs[string(m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// exists reports whether pattern, a glob over slash-separated paths,
	// matches a file: anchored at the root when it has a directory, and by
	// base name anywhere in the tree when it has none.
	exists := func(pattern string) bool {
		for _, f := range files {
			target := f
			if !strings.Contains(pattern, "/") {
				target = path.Base(f)
			}
			if ok, _ := path.Match(pattern, target); ok {
				return true
			}
		}
		return false
	}

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "results/README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		historical := map[string]bool{}
		for _, ref := range docsHistorical[doc] {
			historical[ref] = true
		}
		seen := map[string]bool{}
		for _, m := range docSpan.FindAllStringSubmatch(string(text), -1) {
			ref := m[1]
			if seen[ref] || historical[ref] {
				continue
			}
			seen[ref] = true
			switch {
			case docGoFile.MatchString(ref):
				if !exists(ref) {
					t.Errorf("%s names `%s`: no such Go file", doc, ref)
				}
			case docArtifact.MatchString(ref):
				// An artifact is named from the root (`results/x.txt`) or, in
				// results/README.md, relative to the document.
				if !exists(ref) && !exists(path.Join(path.Dir(doc), ref)) {
					t.Errorf("%s names `%s`: no such artifact", doc, ref)
				}
			case docTestName.MatchString(ref):
				name := docTestName.FindStringSubmatch(ref)
				found := funcs[name[1]]
				if name[2] == "*" {
					for fn := range funcs {
						found = found || strings.HasPrefix(fn, name[1])
					}
				}
				if !found {
					t.Errorf("%s names `%s`: no such test function", doc, ref)
				}
			}
		}
		for ref := range historical {
			if !strings.Contains(string(text), "`"+ref+"`") || exists(ref) {
				t.Errorf("%s: `%s` is no longer a historical reference: drop it from docsHistorical", doc, ref)
			}
		}
	}
}
