// Package reach is the reachability fence (DESIGN.md "What ships"): a
// test-only, stdlib-only analysis that type-checks every non-test file of
// the module once, builds a reference graph over package-level functions,
// methods, types, variables and constants, marks everything the roots
// reach, and fails on whatever is left. Nothing here ships: the package
// has no non-test file.
package reach

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// config says what the roots of one module are.
type config struct {
	dir string // module root (the directory holding go.mod)
	// rootDirs are module-relative directories under which every
	// declaration is a root: the programs somebody runs.
	rootDirs []string
	// apiPkg is the module-relative directory of the package whose
	// exported declarations are roots ("." for the module root).
	apiPkg   string
	deferred []deferredRoot
}

// deferredRoot is the fence's only escape: a symbol treated as an extra
// root, so what it uses is reached through it. The list can only shrink —
// analyze refuses a deferred root that no longer exists or that the other
// roots already reach.
type deferredRoot struct {
	symbol string // as report prints it: "internal/rl.LoadCheckpoint", "internal/rl.DQN.Checkpoint"
	reason string
}

// unreached is one line of the fence's report.
type unreached struct {
	symbol string
	file   string // module-relative
	line   int
	lines  int // the declaration with its doc comment
}

func (u unreached) String() string {
	return fmt.Sprintf("%s:%d: %s (%d lines)", u.file, u.line, u.symbol, u.lines)
}

// stdInterfaces are the standard-library interfaces through which the
// standard library calls back into a module type. A nil name list means
// every exported interface of the package. An entry counts only when its
// package is in the module's transitive imports — an interface of a
// package no program links cannot dispatch.
var stdInterfaces = []struct {
	pkg   string
	names []string
}{
	{"fmt", []string{"Stringer"}},
	{"io", nil},
	{"sort", []string{"Interface"}},
	{"math/rand", []string{"Source", "Source64"}},
	{"encoding/json", []string{"Marshaler", "Unmarshaler"}},
	{"net/http", []string{"Handler"}},
	{"flag", []string{"Value"}},
}

// One file set and one standard-library importer for every analysis in
// this test binary, so the standard library is type-checked once.
var (
	fset = token.NewFileSet()
	std  = newStdImporter()
)

func newStdImporter() types.Importer {
	// The source importer reads build.Default; without cgo it takes the
	// pure-Go files of net and os/user and needs no C toolchain.
	build.Default.CgoEnabled = false
	return importer.ForCompiler(fset, "source", nil)
}

// module is the module being analysed: its packages, type-checked once
// each, and the reference graph over their package-level declarations.
type module struct {
	cfg  config
	path string // module path from go.mod
	pkgs map[string]*pkg
	info *types.Info

	// The graph. program stands for what runs without being called: init
	// bodies and package-level initialisers hang their references on it.
	program types.Object
	nodes   map[types.Object]*node
	methods map[*types.TypeName][]*types.Func
	// ifaceNames are the method names of every interface declared in the
	// module; stdIfaces the linked standard-library interfaces.
	ifaceNames map[string]bool
	stdIfaces  []*types.Interface
}

type pkg struct {
	rel   string // module-relative directory, "." for the root
	files []*ast.File
	types *types.Package
	err   error
}

type node struct {
	symbol string
	pkg    *pkg      // nil for the program node
	pos    token.Pos // start of the declaration, doc comment included
	end    token.Pos
	refs   []types.Object
}

// Import implements types.Importer: module packages come from the module
// (checked on first use, once), everything else from the standard library.
func (m *module) Import(ipath string) (*types.Package, error) {
	rel, ok := m.relPath(ipath)
	if !ok {
		return std.Import(ipath)
	}
	p := m.pkgs[rel]
	if p == nil {
		return nil, fmt.Errorf("package %s not found in module %s", ipath, m.path)
	}
	m.check(p)
	return p.types, p.err
}

func (m *module) relPath(ipath string) (string, bool) {
	if ipath == m.path {
		return ".", true
	}
	if rest, ok := strings.CutPrefix(ipath, m.path+"/"); ok {
		return rest, true
	}
	return "", false
}

func (m *module) check(p *pkg) {
	if p.types != nil || p.err != nil {
		return
	}
	conf := types.Config{Importer: m}
	p.types, p.err = conf.Check(path.Join(m.path, p.rel), fset, p.files, m.info)
}

// load parses the non-test files of every package directory under cfg.dir
// (build constraints applied, testdata and nested modules skipped) and
// type-checks them.
func load(cfg config) (*module, error) {
	gomod, err := os.ReadFile(filepath.Join(cfg.dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{
		cfg:  cfg,
		pkgs: map[string]*pkg{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			m.path = strings.TrimSpace(rest)
		}
	}
	if m.path == "" {
		return nil, fmt.Errorf("%s/go.mod names no module", cfg.dir)
	}
	err = filepath.WalkDir(cfg.dir, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != cfg.dir {
			name := d.Name()
			if name == "testdata" || name[0] == '.' || name[0] == '_' {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			if _, none := err.(*build.NoGoError); none {
				return nil
			}
			return err
		}
		if len(bp.GoFiles) == 0 {
			return nil // a test-only package ships nothing
		}
		rel, err := filepath.Rel(cfg.dir, dir)
		if err != nil {
			return err
		}
		p := &pkg{rel: filepath.ToSlash(rel)}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		m.pkgs[p.rel] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, rel := range m.sortedPkgs() {
		p := m.pkgs[rel]
		if m.check(p); p.err != nil {
			return nil, p.err
		}
	}
	return m, nil
}

func (m *module) sortedPkgs() []string {
	rels := make([]string, 0, len(m.pkgs))
	for rel := range m.pkgs {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	return rels
}

// build fills the graph: one node per package-level declaration, one edge
// per identifier inside it that resolves to another node.
func (m *module) build() {
	m.program = types.NewLabel(token.NoPos, nil, "program")
	m.nodes = map[types.Object]*node{m.program: {}}
	m.methods = map[*types.TypeName][]*types.Func{}
	m.ifaceNames = map[string]bool{}

	// Nodes first, so an edge can tell a package-level declaration from a
	// local, a field or an interface method by looking its target up.
	type body struct {
		owners []types.Object
		tree   ast.Node
	}
	var bodies []body
	walk := func(tree ast.Node, owners ...types.Object) {
		if tree != nil && len(owners) > 0 {
			bodies = append(bodies, body{owners, tree})
		}
	}
	for _, rel := range m.sortedPkgs() {
		p := m.pkgs[rel]
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "_") {
						walk(d, m.program)
						continue
					}
					fn := m.info.Defs[d.Name].(*types.Func)
					m.add(p, fn, d.Name.Name, declStart(d.Doc, d.Pos()), d.End())
					if recv := receiver(fn); recv != nil {
						m.nodes[fn].symbol = symbol(p, recv.Name()+"."+d.Name.Name)
						m.methods[recv] = append(m.methods[recv], fn)
					}
					walk(d, fn)
				case *ast.GenDecl:
					m.addSpecs(p, d, walk)
				}
			}
		}
	}
	for _, b := range bodies {
		ast.Inspect(b.tree, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			target := origin(m.info.Uses[id])
			if m.nodes[target] == nil {
				return true
			}
			for _, owner := range b.owners {
				if owner != target {
					m.nodes[owner].refs = append(m.nodes[owner].refs, target)
				}
			}
			return true
		})
	}

	// Dispatch: every interface the module declares, by method name; the
	// listed standard-library interfaces, by implementation.
	for _, p := range m.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if iface, ok := m.info.Types[it].Type.(*types.Interface); ok {
						for i := 0; i < iface.NumMethods(); i++ {
							m.ifaceNames[iface.Method(i).Name()] = true
						}
					}
				}
				return true
			})
		}
	}
	m.stdIfaces = []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	linked := m.linkedStd()
	for _, e := range stdInterfaces {
		sp := linked[e.pkg]
		if sp == nil {
			continue
		}
		names := e.names
		if names == nil {
			names = sp.Scope().Names()
		}
		for _, name := range names {
			tn, ok := sp.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				m.stdIfaces = append(m.stdIfaces, iface)
			}
		}
	}
}

// addSpecs registers the types, variables and constants of one
// declaration group and queues their expressions for the edge pass.
func (m *module) addSpecs(p *pkg, d *ast.GenDecl, walk func(ast.Node, ...types.Object)) {
	var constType ast.Expr // a constant without a value repeats the previous spec
	var constValues []ast.Expr
	for _, s := range d.Specs {
		// A lone spec owns its group's doc comment; in a parenthesised
		// group each spec has its own.
		pos, end := s.Pos(), s.End()
		if !d.Lparen.IsValid() {
			pos, end = declStart(d.Doc, d.Pos()), d.End()
		}
		switch s := s.(type) {
		case *ast.TypeSpec:
			tn := m.info.Defs[s.Name].(*types.TypeName)
			m.add(p, tn, s.Name.Name, declStart(s.Doc, pos), end)
			walk(s, tn)
		case *ast.ValueSpec:
			var owners []types.Object
			for _, name := range s.Names {
				if name.Name != "_" {
					obj := m.info.Defs[name]
					m.add(p, obj, name.Name, declStart(s.Doc, pos), end)
					owners = append(owners, obj)
				}
			}
			if d.Tok == token.CONST {
				if len(s.Values) > 0 {
					constType, constValues = s.Type, s.Values
				}
				if constType != nil {
					walk(constType, owners...)
				}
				for _, v := range constValues {
					walk(v, owners...)
				}
				continue
			}
			if s.Type != nil {
				walk(s.Type, owners...)
			}
			// An initialiser runs whether or not anything reads the
			// variable, so what it references hangs on the program — except
			// `var _ I = (*T)(nil)`, a compile-time assertion that runs
			// nothing and must not keep T alive.
			if len(owners) == 0 && s.Type != nil {
				continue
			}
			for _, v := range s.Values {
				walk(v, m.program)
			}
		}
	}
}

func (m *module) add(p *pkg, obj types.Object, name string, pos, end token.Pos) {
	m.nodes[obj] = &node{symbol: symbol(p, name), pkg: p, pos: pos, end: end}
}

func symbol(p *pkg, name string) string {
	if p.rel == "." {
		return name
	}
	return p.rel + "." + name
}

func declStart(doc *ast.CommentGroup, pos token.Pos) token.Pos {
	if doc != nil {
		return doc.Pos()
	}
	return pos
}

// origin maps an instantiated generic function, method or variable back
// to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// receiver returns the named type a method is declared on, nil for a
// plain function.
func receiver(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := types.Unalias(recv.Type())
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// linkedStd returns every non-module package in the module's transitive
// imports.
func (m *module) linkedStd() map[string]*types.Package {
	seen := map[string]*types.Package{}
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		for _, imp := range tp.Imports() {
			if seen[imp.Path()] == nil {
				seen[imp.Path()] = imp
				visit(imp)
			}
		}
	}
	for _, p := range m.pkgs {
		visit(p.types)
	}
	return seen
}

// dispatched reports whether a method of tn may be called without a
// static reference: through some interface declared in the module (matched
// by name alone, so the fence can under-report but never accuse live
// code), or through a listed standard-library interface tn implements.
func (m *module) dispatched(tn *types.TypeName, method string) bool {
	if m.ifaceNames[method] {
		return true
	}
	for _, iface := range m.stdIfaces {
		if !types.Implements(tn.Type(), iface) && !types.Implements(types.NewPointer(tn.Type()), iface) {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == method {
				return true
			}
		}
	}
	return false
}

// reach marks everything the given roots reach.
func (m *module) reach(roots []types.Object) map[types.Object]bool {
	reached := map[types.Object]bool{}
	work := append([]types.Object(nil), roots...)
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[obj] {
			continue
		}
		reached[obj] = true
		work = append(work, m.nodes[obj].refs...)
		if tn, ok := obj.(*types.TypeName); ok {
			for _, fn := range m.methods[tn] {
				if m.dispatched(tn, fn.Name()) {
					work = append(work, fn)
				}
			}
		}
	}
	return reached
}

// roots are the program itself, every declaration under a root directory,
// and the exported declarations of the API package — a method when it and
// its receiver type are both exported. An exported alias is a root like
// any type, and like any type it does not by itself reach the methods of
// what it names.
func (m *module) roots() []types.Object {
	roots := []types.Object{m.program}
	for obj, n := range m.nodes {
		if n.pkg == nil {
			continue
		}
		switch {
		case m.underRootDir(n.pkg.rel):
			roots = append(roots, obj)
		case n.pkg.rel == m.cfg.apiPkg && obj.Exported():
			if fn, ok := obj.(*types.Func); ok {
				if recv := receiver(fn); recv != nil && !recv.Exported() {
					continue
				}
			}
			roots = append(roots, obj)
		}
	}
	return roots
}

func (m *module) underRootDir(rel string) bool {
	for _, dir := range m.cfg.rootDirs {
		if rel == dir || strings.HasPrefix(rel, dir+"/") {
			return true
		}
	}
	return false
}

// analyze loads the module under cfg.dir and returns the declarations no
// root reaches, in file and line order. A deferred root that names nothing,
// or that is reached without its own entry, is an error.
func analyze(cfg config) ([]unreached, error) {
	m, err := load(cfg)
	if err != nil {
		return nil, err
	}
	m.build()

	bySymbol := map[string]types.Object{}
	for obj, n := range m.nodes {
		if n.pkg != nil {
			bySymbol[n.symbol] = obj
		}
	}
	roots := m.roots()
	var deferred []types.Object
	for _, d := range cfg.deferred {
		obj := bySymbol[d.symbol]
		if obj == nil {
			return nil, fmt.Errorf("deferred root %s no longer exists: drop it from the list", d.symbol)
		}
		deferred = append(deferred, obj)
	}
	for i, obj := range deferred {
		others := append(append([]types.Object(nil), roots...), deferred[:i]...)
		others = append(others, deferred[i+1:]...)
		if m.reach(others)[obj] {
			return nil, fmt.Errorf("deferred root %s is reached without its entry: drop it from the list", cfg.deferred[i].symbol)
		}
	}

	reached := m.reach(append(roots, deferred...))
	var out []unreached
	for obj, n := range m.nodes {
		if reached[obj] || n.pkg == nil {
			continue
		}
		start, end := fset.Position(n.pos), fset.Position(n.end)
		file, err := filepath.Rel(cfg.dir, start.Filename)
		if err != nil {
			return nil, err
		}
		out = append(out, unreached{
			symbol: n.symbol,
			file:   filepath.ToSlash(file),
			line:   start.Line,
			lines:  end.Line - start.Line + 1,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		if out[i].line != out[j].line {
			return out[i].line < out[j].line
		}
		return out[i].symbol < out[j].symbol
	})
	return out, nil
}

// The three reasons a symbol may be a deferred root.
const (
	resume   = "trainer-state resume entry point: recovery code pinned by TestBitwiseResumeEquivalence and the ckpt fuzzers; ROADMAP's training-state-checkpoints item wires or deletes it"
	fuzzed   = "fuzzed fixture constructor that tests of other packages build their DAGs with, waiting for a program caller"
	crossPkg = "read or called by a test in another package, out of reach of an export_test.go"
)

// repo is the fence's configuration for this module.
var repo = config{
	dir:      filepath.Join("..", ".."),
	rootDirs: []string{"cmd", "examples", "bench"},
	apiPkg:   ".",
	deferred: []deferredRoot{
		{"internal/rl.LoadCheckpoint", resume},
		{"internal/rl.LoadDQNCheckpoint", resume},
		{"internal/rl.ActorCritic.Checkpoint", resume},
		{"internal/rl.DQN.Checkpoint", resume},
		{"internal/app.ParseDAG", fuzzed},
		{"internal/rl.Replay.At", crossPkg + ": internal/agent's worker-equivalence tests compare replay contents"},
		{"internal/ckpt.Enc.Reset", crossPkg + ": internal/rl's TestCheckpointEncodeAllocFree reuses one encoder"},
	},
}

// TestReachability is the fence: nothing ships that no program, example,
// benchmark or exported root-package declaration can reach.
func TestReachability(t *testing.T) {
	out, err := analyze(repo)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d deferred roots", len(repo.deferred))
	if len(repo.deferred) > 12 {
		t.Errorf("%d deferred roots: the list is capped at 12 and only shrinks", len(repo.deferred))
	}
	for _, d := range repo.deferred {
		t.Logf("  %s — %s", d.symbol, d.reason)
	}
	total := 0
	for _, u := range out {
		t.Errorf("unreached: %s", u)
		total += u.lines
	}
	if len(out) > 0 {
		t.Errorf("%d declarations, %d lines, that nothing under cmd/, examples/, bench/ or the root API reaches: "+
			"delete them, or move a test's observer into that package's export_test.go (DESIGN.md, What ships)", len(out), total)
	}
}

// fixture is the synthetic module under testdata: one declaration per case
// of the analysis (see its lib.go), with the same root rules as the repo.
func fixture(deferred ...deferredRoot) config {
	return config{
		dir:      filepath.Join("testdata", "fixture"),
		rootDirs: []string{"cmd"},
		apiPkg:   ".",
		deferred: deferred,
	}
}

func symbols(out []unreached) []string {
	var s []string
	for _, u := range out {
		s = append(s, u.symbol)
	}
	sort.Strings(s)
	return s
}

// TestAnalysisOnFixture states the unreached set of the fixture. Everything
// else in it is a case that must be reached: a method called only through
// an in-module interface (Square.Area), a method value (Counter.Inc), a
// function stored in a struct field (done), a generic function instantiated
// from a program (Map), a String on a printed type (Level.String), what an
// init or a package-level initialiser calls (fromInit, buildTable), and
// what a program's or the API package's declarations call.
func TestAnalysisOnFixture(t *testing.T) {
	out, err := analyze(fixture())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib.Asserted",         // only a compile-time assertion names it
		"internal/lib.Asserted.Area",    // its type is unreached, whatever its name matches
		"internal/lib.Deferred",         // no caller, no deferred entry in this run
		"internal/lib.Hidden.Secret",    // the alias reaches Hidden, not its methods
		"internal/lib.OnlyTested",       // only lib_test.go calls it
		"internal/lib.Square.Perimeter", // no caller, no interface has the name
		"internal/lib.Unused",           // a constant nothing names
		"internal/lib.table",            // its initialiser runs; nothing reads it
		"internal/lib.usedByDeferred",   // reached only through Deferred
		"unexportedAPI",                 // in the API package, but not exported
	}
	sort.Strings(want)
	if got := symbols(out); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("unreached set:\n got  %v\n want %v", got, want)
	}
	for _, u := range out {
		if u.symbol == "internal/lib.Square.Perimeter" && (u.file != "internal/lib/lib.go" || u.lines != 2) {
			t.Errorf("Perimeter reported as %s, want internal/lib/lib.go with its doc comment (2 lines)", u)
		}
	}
}

// TestDeferredRoots: a deferred root is an extra root, and the list can
// only shrink — an entry for a symbol that is gone or already reached fails.
func TestDeferredRoots(t *testing.T) {
	out, err := analyze(fixture(deferredRoot{"internal/lib.Deferred", "test"}))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range symbols(out) {
		if s == "internal/lib.Deferred" || s == "internal/lib.usedByDeferred" {
			t.Errorf("%s unreached although Deferred is a deferred root", s)
		}
	}
	for _, stale := range []string{
		"internal/lib.Deleted",     // no such symbol
		"internal/lib.Square.Area", // reached through Shape without the entry
		"internal/lib.ViaAPI",      // reached from the API package
	} {
		if _, err := analyze(fixture(deferredRoot{stale, "test"})); err == nil {
			t.Errorf("stale deferred root %s accepted", stale)
		}
	}
	// Two entries where one reaches the other: the second is redundant.
	_, err = analyze(fixture(
		deferredRoot{"internal/lib.Deferred", "test"},
		deferredRoot{"internal/lib.usedByDeferred", "test"},
	))
	if err == nil || !strings.Contains(err.Error(), "usedByDeferred") {
		t.Errorf("redundant deferred root accepted: %v", err)
	}
}
