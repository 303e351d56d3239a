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
	"maps"
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

// deferredRoot is the fence's only escape: a declaration treated as an
// extra root, so what it uses is reached through it, or a configuration
// field treated as turned. The list can only shrink — both passes refuse a
// deferred root that no longer exists or that the other roots already reach
// or turn.
type deferredRoot struct {
	symbol string // as report prints it: "internal/app.ParseDAG", "internal/rl.Replay.At", "internal/serve.DaemonConfig.GuardConfig"
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
// this test binary, so the standard library is type-checked once, and one
// loaded module per directory, so each package is.
var (
	fset    = token.NewFileSet()
	std     = newStdImporter()
	modules = map[string]*module{}
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
	dir  string
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
	// bodies are the syntax trees the edges were read from, each with the
	// declarations it belongs to; the field pass reads its writes there.
	bodies []body
}

type body struct {
	owners []types.Object
	tree   ast.Node
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

// load parses the non-test files of every package directory under dir
// (build constraints applied, testdata and nested modules skipped),
// type-checks them and builds the graph — once per directory.
func load(dir string) (*module, error) {
	if m := modules[dir]; m != nil {
		return m, nil
	}
	gomod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{
		dir:  dir,
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
		return nil, fmt.Errorf("%s/go.mod names no module", dir)
	}
	err = filepath.WalkDir(dir, func(sub string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if sub != dir {
			name := d.Name()
			if name == "testdata" || name[0] == '.' || name[0] == '_' {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(sub, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.Default.ImportDir(sub, 0)
		if err != nil {
			if _, none := err.(*build.NoGoError); none {
				return nil
			}
			return err
		}
		if len(bp.GoFiles) == 0 {
			return nil // a test-only package ships nothing
		}
		rel, err := filepath.Rel(dir, sub)
		if err != nil {
			return err
		}
		p := &pkg{rel: filepath.ToSlash(rel)}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(sub, name), nil, parser.ParseComments|parser.SkipObjectResolution)
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
	m.build()
	modules[dir] = m
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
	walk := func(tree ast.Node, owners ...types.Object) {
		if tree != nil && len(owners) > 0 {
			m.bodies = append(m.bodies, body{owners, tree})
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
	for _, b := range m.bodies {
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
func (m *module) roots(cfg config) []types.Object {
	roots := []types.Object{m.program}
	for obj, n := range m.nodes {
		if n.pkg == nil {
			continue
		}
		switch {
		case cfg.underRootDir(n.pkg.rel):
			roots = append(roots, obj)
		case n.pkg.rel == cfg.apiPkg && obj.Exported():
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

func (cfg config) underRootDir(rel string) bool {
	for _, dir := range cfg.rootDirs {
		if rel == dir || strings.HasPrefix(rel, dir+"/") {
			return true
		}
	}
	return false
}

// reached returns what the roots and the deferred declarations reach. A
// deferred entry that names neither a declaration nor a configuration
// field, or a declaration reached without its own entry, is an error.
func (m *module) reached(cfg config) (map[types.Object]bool, error) {
	bySymbol := map[string]types.Object{}
	for obj, n := range m.nodes {
		if n.pkg != nil {
			bySymbol[n.symbol] = obj
		}
	}
	fields := m.configFields(cfg)
	roots := m.roots(cfg)
	var deferred []types.Object
	var names []string
	for _, d := range cfg.deferred {
		obj := bySymbol[d.symbol]
		if obj == nil {
			if fieldNamed(fields, d.symbol) == nil {
				return nil, fmt.Errorf("deferred root %s no longer exists: drop it from the list", d.symbol)
			}
			continue // the field pass's
		}
		deferred = append(deferred, obj)
		names = append(names, d.symbol)
	}
	for i, obj := range deferred {
		others := append(append([]types.Object(nil), roots...), deferred[:i]...)
		others = append(others, deferred[i+1:]...)
		if m.reach(others)[obj] {
			return nil, fmt.Errorf("deferred root %s is reached without its entry: drop it from the list", names[i])
		}
	}
	return m.reach(append(roots, deferred...)), nil
}

// analyze loads the module under cfg.dir and returns the declarations no
// root reaches, in file and line order.
func analyze(cfg config) ([]unreached, error) {
	m, err := load(cfg.dir)
	if err != nil {
		return nil, err
	}
	reached, err := m.reached(cfg)
	if err != nil {
		return nil, err
	}
	var out []unreached
	for obj, n := range m.nodes {
		if reached[obj] || n.pkg == nil {
			continue
		}
		start, end := fset.Position(n.pos), fset.Position(n.end)
		out = append(out, unreached{
			symbol: n.symbol,
			file:   m.rel(start.Filename),
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

func (m *module) rel(file string) string {
	rel, err := filepath.Rel(m.dir, file)
	if err != nil {
		return file
	}
	return filepath.ToSlash(rel)
}

// knob is one exported field of a struct type named *Config: an option.
type knob struct {
	symbol string // "internal/rl.DQNConfig.Tau"
	file   string // module-relative
	line   int
	// api marks a field of a struct declared in the API package: library
	// surface, set by callers the module cannot see.
	api    bool
	turned bool
}

func (k knob) String() string { return fmt.Sprintf("%s:%d: %s", k.file, k.line, k.symbol) }

// configFields returns the options: every exported field of every struct
// type named *Config. A type alias declares no fields, so an alias in the
// API package does not make another package's fields library surface.
func (m *module) configFields(cfg config) map[*types.Var]*knob {
	fields := map[*types.Var]*knob{}
	for obj, n := range m.nodes {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() || !strings.HasSuffix(tn.Name(), "Config") {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			pos := fset.Position(f.Pos())
			fields[f] = &knob{
				symbol: n.symbol + "." + f.Name(),
				file:   m.rel(pos.Filename),
				line:   pos.Line,
				api:    n.pkg.rel == cfg.apiPkg,
			}
		}
	}
	return fields
}

func fieldNamed(fields map[*types.Var]*knob, symbol string) *types.Var {
	for f, k := range fields {
		if k.symbol == symbol {
			return f
		}
	}
	return nil
}

// analyzeFields is the field pass: it returns every option in file and line
// order, each marked turned when a root, a deferred entry or reached code
// sets it. Code sets a field by naming it in a keyed composite literal (or
// by position in an unkeyed one), by assigning, incrementing or taking the
// address of a selector ending in it — x.A.B = v sets B and A — except in a
// with*Defaults or validate* function. A value copied from
// another option, as in Config{N: full.N}, sets its target only if its
// source is set: the copies are solved to a fixpoint. A deferred field turned
// without its entry is an error.
func analyzeFields(cfg config) ([]knob, error) {
	m, err := load(cfg.dir)
	if err != nil {
		return nil, err
	}
	reached, err := m.reached(cfg)
	if err != nil {
		return nil, err
	}
	fields := m.configFields(cfg)
	set := map[*types.Var]bool{}
	for f, k := range fields {
		set[f] = k.api
	}
	copies := map[*types.Var][]*types.Var{}
	write := func(dst []*types.Var, src ast.Expr) {
		from := m.copied(src, fields)
		for _, f := range dst {
			switch {
			case fields[f] == nil:
			case from != nil:
				copies[f] = append(copies[f], from)
			default:
				set[f] = true
			}
		}
	}
	for _, b := range m.bodies {
		if !m.live(b, reached) || quiet(b) {
			continue
		}
		ast.Inspect(b.tree, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				t := m.info.Types[n].Type // *T for an elided &T{...}
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t = p.Elem()
				}
				st, _ := t.Underlying().(*types.Struct)
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok && m.field(id) != nil {
							write([]*types.Var{m.field(id)}, kv.Value)
						}
					} else if st != nil {
						write([]*types.Var{st.Field(i)}, elt)
					}
				}
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					break
				}
				for i, lhs := range n.Lhs {
					var src ast.Expr // an operator assignment computes its value
					if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
						src = n.Rhs[i]
					}
					write(m.writePath(lhs), src)
				}
			case *ast.IncDecStmt:
				write(m.writePath(n.X), nil)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					write(m.writePath(n.X), nil)
				}
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						write(m.writePath(e), nil)
					}
				}
			}
			return true
		})
	}

	var deferred []*types.Var
	for _, d := range cfg.deferred {
		if f := fieldNamed(fields, d.symbol); f != nil {
			deferred = append(deferred, f)
		}
	}
	for i, f := range deferred {
		seeds := maps.Clone(set)
		for j, g := range deferred {
			seeds[g] = seeds[g] || i != j
		}
		if fixpoint(seeds, copies)[f] {
			return nil, fmt.Errorf("deferred field root %s is turned without its entry: drop it from the list", fields[f].symbol)
		}
	}
	for _, f := range deferred {
		set[f] = true
	}
	turned := fixpoint(set, copies)
	out := make([]knob, 0, len(fields))
	for f, k := range fields {
		k.turned = turned[f]
		out = append(out, *k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out, nil
}

// fixpoint extends set along copies until no copy's source is set while
// its target is not.
func fixpoint(set map[*types.Var]bool, copies map[*types.Var][]*types.Var) map[*types.Var]bool {
	turned := maps.Clone(set)
	for changed := true; changed; {
		changed = false
		for dst, srcs := range copies {
			for _, src := range srcs {
				if turned[src] && !turned[dst] {
					turned[dst], changed = true, true
				}
			}
		}
	}
	return turned
}

// live reports whether reached code owns the body.
func (m *module) live(b body, reached map[types.Object]bool) bool {
	for _, owner := range b.owners {
		if reached[owner] {
			return true
		}
	}
	return false
}

// quiet reports whether the body's writes fill in a field rather than choose
// it: a with*Defaults or validate* function.
func quiet(b body) bool {
	fd, ok := b.tree.(*ast.FuncDecl)
	if !ok {
		return false
	}
	name := fd.Name.Name
	return strings.HasPrefix(name, "validate") || strings.HasPrefix(name, "with") && strings.HasSuffix(name, "Defaults")
}

// field returns the struct field an identifier names, nil if it names none.
func (m *module) field(id *ast.Ident) *types.Var {
	if v, ok := m.info.Uses[id].(*types.Var); ok && v.IsField() {
		return v.Origin()
	}
	return nil
}

// writePath returns the fields a write to e sets: x.A[i].B sets B and A.
func (m *module) writePath(e ast.Expr) []*types.Var {
	var fields []*types.Var
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			f := m.field(x.Sel)
			if f == nil { // a package-qualified name
				return fields
			}
			fields = append(fields, f)
			e = x.X
		default:
			return fields
		}
	}
}

// copied returns the option e reads verbatim, nil if e is anything else.
func (m *module) copied(e ast.Expr, fields map[*types.Var]*knob) *types.Var {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if f := m.field(sel.Sel); f != nil && fields[f] != nil {
			return f
		}
	}
	return nil
}

// The three reasons a symbol may be a deferred root.
const (
	fuzzed   = "fuzzed fixture constructor that tests of other packages build their DAGs with, waiting for a program caller"
	crossPkg = "read, called or set by a test in another package, out of reach of an export_test.go"
	benchPin = "named by bench/, whose sources stay fixed so the benchmark compares like with like across commits"
)

// repo is the fence's configuration for this module.
var repo = config{
	dir:      filepath.Join("..", ".."),
	rootDirs: []string{"cmd", "examples", "bench"},
	apiPkg:   ".",
	deferred: []deferredRoot{
		{"internal/app.ParseDAG", fuzzed},
		{"internal/rl.Replay.At", crossPkg + ": internal/agent's worker-equivalence tests and vector digests read replay contents"},
		{"internal/server.Config.RecordJobs", crossPkg + ": internal/exp's DAG invariant tests record job traces"},
		{"internal/serve.DaemonConfig.GuardConfig", benchPin + ": bench/serve.go builds its guard from it"},
	},
}

// TestReachability is the fence: nothing ships that no program, example,
// benchmark or exported root-package declaration can reach.
func TestReachability(t *testing.T) {
	out, err := analyze(repo)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d deferred roots, declarations and fields together", len(repo.deferred))
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

// TestReachabilityFields is the knob fence: every option — an exported
// field of a *Config struct — is set by some program, example or benchmark,
// or is library surface of the root package. An option nothing sets is a
// constant (DESIGN.md, What ships).
func TestReachabilityFields(t *testing.T) {
	knobs, err := analyzeFields(repo)
	if err != nil {
		t.Fatal(err)
	}
	cfgTypes, api, unturned := map[string]bool{}, 0, 0
	for _, k := range knobs {
		for _, d := range repo.deferred {
			if d.symbol == k.symbol {
				t.Logf("deferred field root: %s — %s", d.symbol, d.reason)
			}
		}
		cfgTypes[k.symbol[:strings.LastIndex(k.symbol, ".")]] = true
		if k.api {
			api++
		}
		if !k.turned {
			t.Errorf("unturned: %s", k)
			unturned++
		}
	}
	t.Logf("%d exported fields on %d *Config types: %d root-API, %d unturned", len(knobs), len(cfgTypes), api, unturned)
	if unturned > 0 {
		t.Errorf("%d options that nothing under cmd/, examples/ or bench/ sets: make each a named constant, "+
			"unexport it if only its own package's tests set it, or defer it with a reason (DESIGN.md, What ships)", unturned)
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

// outcomes renders the field pass's verdict on each option: "root" for
// library surface of the API package, else "turned" or "unturned".
func outcomes(knobs []knob) map[string]string {
	out := map[string]string{}
	for _, k := range knobs {
		switch {
		case k.api:
			out[k.symbol] = "root"
		case k.turned:
			out[k.symbol] = "turned"
		default:
			out[k.symbol] = "unturned"
		}
	}
	return out
}

// TestFieldsOnFixture states the field pass's verdict on every option of
// the fixture (see its internal/lib/config.go).
func TestFieldsOnFixture(t *testing.T) {
	knobs, err := analyzeFields(fixture())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"internal/lib.Config.TestOnly":    "unturned", // only lib_test.go sets it
		"internal/lib.Config.Flagged":     "turned",   // flag.IntVar(&cfg.Flagged, …) in cmd/
		"internal/lib.Config.Defaulted":   "unturned", // only withDefaults sets it
		"internal/lib.Config.Inner":       "turned",   // cfg.Inner.X = 2 writes through it
		"internal/lib.InnerConfig.X":      "turned",   // … and sets X
		"internal/lib.Config.FromCold":    "unturned", // copied from an unturned option
		"internal/lib.Config.FromHot":     "turned",   // copied from a turned one
		"internal/lib.SourceConfig.Hot":   "turned",   // a keyed literal in cmd/
		"internal/lib.SourceConfig.Cold":  "unturned", // nobody sets it
		"internal/lib.AliasedConfig.Knob": "unturned", // the API alias does not make it a root
		"APIConfig.Level":                 "root",     // declared in the API package
	}
	got := outcomes(knobs)
	for sym, w := range want {
		if got[sym] != w {
			t.Errorf("%s: got %q, want %q", sym, got[sym], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d options, want %d: %v", len(got), len(want), got)
	}
}

// TestDeferredFieldRoots: a deferred field root is turned, and so is what
// copies it; an entry for a field that is gone, already turned or library
// surface fails, as does one that another entry turns.
func TestDeferredFieldRoots(t *testing.T) {
	knobs, err := analyzeFields(fixture(
		deferredRoot{"internal/lib.Config.TestOnly", "test"},
		deferredRoot{"internal/lib.SourceConfig.Cold", "test"},
	))
	if err != nil {
		t.Fatal(err)
	}
	got := outcomes(knobs)
	for _, sym := range []string{"internal/lib.Config.TestOnly", "internal/lib.SourceConfig.Cold", "internal/lib.Config.FromCold"} {
		if got[sym] != "turned" {
			t.Errorf("%s %s although deferred", sym, got[sym])
		}
	}
	for _, stale := range []string{
		"internal/lib.Config.Gone",    // no such field
		"internal/lib.Config.Flagged", // turned by the program
		"APIConfig.Level",             // library surface
	} {
		if _, err := analyzeFields(fixture(deferredRoot{stale, "test"})); err == nil {
			t.Errorf("stale deferred field root %s accepted", stale)
		}
	}
	_, err = analyzeFields(fixture(
		deferredRoot{"internal/lib.SourceConfig.Cold", "test"},
		deferredRoot{"internal/lib.Config.FromCold", "test"},
	))
	if err == nil || !strings.Contains(err.Error(), "FromCold") {
		t.Errorf("redundant deferred field root accepted: %v", err)
	}
}
