package anybc

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// moduleImporter type-checks the packages it holds — each one's parsed
// non-test files, by import path — from source, each once, and hands every
// other import path to std.
type moduleImporter struct {
	fset *token.FileSet
	pkgs map[string][]*ast.File
	done map[string]*types.Package
	std  types.Importer
	info *types.Info
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.done[path]; ok {
		return p, nil
	}
	src, ok := m.pkgs[path]
	if !ok {
		return m.std.Import(path)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, src, m.info)
	if err != nil {
		return nil, err
	}
	m.done[path] = p
	return p, nil
}

// surface is what a build declares under internal/ — every package-level
// name and every method, keyed "pkg.Name" or "pkg.Type.Method" — and which of
// those names its main packages reach, alone and together with the
// allow-listed names.
type surface struct {
	declared  map[string]token.Position
	fromMains map[string]bool
	kept      map[string]bool
}

// merge adds o's names to s: a name is live if any build reaches it.
func (s *surface) merge(o *surface) {
	for key, pos := range o.declared {
		s.declared[key] = pos
	}
	for key := range o.fromMains {
		s.fromMains[key] = true
	}
	for key := range o.kept {
		s.kept[key] = true
	}
}

// origin maps an instantiated generic function, method or field to the
// object its source declares.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// surfaceKey names a package-level object "pkg.Name" and a method
// "pkg.Type.Method".
func surfaceKey(o types.Object) string {
	if f, ok := o.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return o.Pkg().Name() + "." + n.Obj().Name() + "." + o.Name()
			}
		}
	}
	return o.Pkg().Name() + "." + o.Name()
}

// typeCheck type-checks every package of pkgs from source and returns what
// the checker recorded, the importer holding each checked package, and the
// import paths in order.
func typeCheck(fset *token.FileSet, pkgs map[string][]*ast.File, std types.Importer) (*types.Info, *moduleImporter, []string, error) {
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	imp := &moduleImporter{fset: fset, pkgs: pkgs, done: map[string]*types.Package{}, std: std, info: info}
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := imp.Import(path); err != nil {
			return nil, nil, nil, err
		}
	}
	return info, imp, paths, nil
}

// reachFromMains type-checks pkgs and walks from their main packages. A
// declaration reaches what its source mentions, so a name mentioned only
// inside its own declaration (recursion, a type's own methods) or only by
// unreached code is unreached. A reached type also reaches each of its
// methods that some interface the program can see requires: an interface
// call reaches a method without naming it. The allow-listed names are walked
// from last, so what only they use is kept with them.
func reachFromMains(fset *token.FileSet, pkgs map[string][]*ast.File, std types.Importer, allow map[string]string) (*surface, error) {
	info, imp, paths, err := typeCheck(fset, pkgs, std)
	if err != nil {
		return nil, err
	}

	// Every top-level declaration, with the objects its source mentions.
	// Main packages, init functions and blank names are roots; under
	// internal/, every other declaration is a name to account for.
	uses := map[types.Object][]types.Object{}
	var roots []types.Object
	keyOf := map[types.Object]string{}
	s := &surface{declared: map[string]token.Position{}}
	for _, path := range paths {
		isMain := imp.done[path].Name() == "main"
		checked := strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
		for _, file := range pkgs[path] {
			add := func(name *ast.Ident, node ast.Node) {
				var mentions []types.Object
				ast.Inspect(node, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
						mentions = append(mentions, origin(info.Uses[id]))
					}
					return true
				})
				obj := info.Defs[name]
				if isMain || obj == nil || name.Name == "_" {
					roots = append(roots, mentions...)
					return
				}
				uses[obj] = append(uses[obj], mentions...)
				if checked {
					keyOf[obj] = surfaceKey(obj)
					s.declared[keyOf[obj]] = fset.Position(name.Pos())
				}
			}
			for _, dl := range file.Decls {
				switch dl := dl.(type) {
				case *ast.FuncDecl:
					add(dl.Name, dl)
				case *ast.GenDecl:
					for _, spec := range dl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(spec.Name, spec)
						case *ast.ValueSpec:
							for _, name := range spec.Names {
								add(name, spec)
							}
						}
					}
				}
			}
		}
	}

	// Every interface the program can see, by method name: the module's own
	// (named or literal) and the exported ones of every package it imports.
	ifaces := map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.IsMethodSet() {
			for i := 0; i < it.NumMethods(); i++ {
				ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, tv := range info.Types {
		addIface(tv.Type)
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		_, own := pkgs[p.Path()]
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && (own || tn.Exported()) {
				addIface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range imp.done {
		walk(p)
	}
	required := func(named *types.Named, m *types.Func) bool {
		if named.TypeParams().Len() > 0 {
			return len(ifaces[m.Name()]) > 0
		}
		for _, it := range ifaces[m.Name()] {
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}

	reached := map[types.Object]bool{}
	work := []types.Object{}
	reach := func(o types.Object) {
		if !reached[o] {
			reached[o] = true
			work = append(work, o)
		}
	}
	// drain walks the worklist to a fixpoint and returns the names reached.
	drain := func() map[string]bool {
		for len(work) > 0 {
			o := work[len(work)-1]
			work = work[:len(work)-1]
			for _, u := range uses[o] {
				reach(u)
			}
			if tn, ok := o.(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						if m := named.Method(i); required(named, m) {
							reach(m)
						}
					}
				}
			}
		}
		live := map[string]bool{}
		for o := range reached {
			if key, ok := keyOf[o]; ok {
				live[key] = true
			}
		}
		return live
	}
	for _, o := range roots {
		reach(o)
	}
	s.fromMains = drain()
	for o, key := range keyOf {
		if _, ok := allow[key]; ok {
			reach(o)
		}
	}
	s.kept = drain()
	return s, nil
}

// loadModule parses the non-test files ctx builds of every package under
// root — the module and the nested bench/ module, whose paths both start
// "anybc/" — keyed by import path.
func loadModule(fset *token.FileSet, root string, ctx build.Context) (map[string][]*ast.File, error) {
	pkgs := map[string][]*ast.File{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := ctx.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		imp := "anybc"
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		pkgs[imp] = append(pkgs[imp], file)
		return nil
	})
	return pkgs, err
}

// audit returns one complaint per name that neither a main package nor an
// allow-listed name reaches, and per allow-list entry that names nothing or
// names something a main package reaches.
func (s *surface) audit(allow map[string]string) []string {
	var out []string
	for key, pos := range s.declared {
		if !s.kept[key] {
			out = append(out, pos.String()+": "+key+" is reached by no cmd/, examples/ or bench/ program: delete it, with the tests only it serves")
		}
	}
	for key := range allow {
		if _, ok := s.declared[key]; !ok {
			out = append(out, "allow-list names "+key+", which does not exist")
		} else if s.fromMains[key] {
			out = append(out, key+" is reached by product code now: take it off the allow-list")
		}
	}
	sort.Strings(out)
	return out
}

// stdImporter returns the gc importer for the standard library, or skips t
// when there is no go tool to locate its export data.
func stdImporter(t *testing.T) types.Importer {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	return importer.Default()
}

// TestDeadSurface is the guard behind "every name does something": a
// package-level name or method under internal/, exported or not, that no
// main package (cmd/, examples/, bench/) reaches fails here — unless it is on
// the allow-list below with the reason it stays. Tests are not callers. The
// module is checked as built for amd64 and for arm64 (the portable kernels);
// a name either build reaches is live.
func TestDeadSurface(t *testing.T) {
	const item5 = "ROADMAP item 5 makes it a column of the per-P bounds table, or deletes it"
	allow := map[string]string{
		"matrix.FactorLU":                "the sequential reference TestDistributedLUMatchesSequential and TestLUSolveExecutesCorrectly compare distributed factors against",
		"matrix.FactorCholesky":          "the sequential reference TestDistributedCholeskyMatchesSequential and TestCholeskySolveExecutesCorrectly compare against",
		"matrix.SolveLU":                 "the sequential solve TestSolveMatchesSequential compares the distributed LU solve against",
		"matrix.SolveCholesky":           "the sequential solve TestCholeskySolveExecutesCorrectly compares the Cholesky solve graph against",
		"matrix.Dense.Set":               "bench/'s TestFreivaldsCatchesACorruptedFactor corrupts an LU factor through it; ROADMAP item 8c moves that check into runtime",
		"matrix.SymmetricLower.Set":      "the same test corrupts a Cholesky factor through it; ROADMAP item 8c",
		"trace.Recorder.Fingerprint":     "the timestamp-free trace digest — fault schedule included — TestChaosSeedDeterminism and TestDecisionsIndependentOfFeedOrder compare across runs; ROADMAP item 1a makes it a view of the event sink",
		"cluster.Stats.At":               "the per-link count TestChaosRegressionG2DBC23 and TestTreeBroadcastG2DBC23 compare against the fault-free run",
		"dist.CostBound":                 "Lemma 2, which TestG2DBCLemma2 holds G-2DBC to; " + item5,
		"lowerbound.LUSeq":               item5,
		"lowerbound.CholeskySeq":         item5,
		"lowerbound.PatternCostCholesky": item5,
		"lowerbound.SBCExtendedLaw":      item5,
	}
	if len(allow) > 20 {
		t.Errorf("allow-list has %d entries: it is meant to stay at 20 or fewer", len(allow))
	}
	std := stdImporter(t)
	fset := token.NewFileSet()
	all := &surface{declared: map[string]token.Position{}, fromMains: map[string]bool{}, kept: map[string]bool{}}
	for _, arch := range []string{"amd64", "arm64"} {
		ctx := build.Default
		ctx.GOOS, ctx.GOARCH = "linux", arch
		pkgs, err := loadModule(fset, ".", ctx)
		if err != nil {
			t.Fatal(err)
		}
		s, err := reachFromMains(fset, pkgs, std, allow)
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		all.merge(s)
	}
	if len(all.fromMains) == 0 {
		t.Fatal("no main package reaches anything: the scan is broken")
	}
	for _, complaint := range all.audit(allow) {
		t.Error(complaint)
	}
	for key, why := range allow {
		t.Logf("%s: no product caller, kept: %s", key, why)
	}
}

// TestDeadSurfaceFindsPlantedNames runs the scan over a module built in
// memory, so that a scan which silently stopped finding anything fails here
// instead of passing TestDeadSurface.
func TestDeadSurfaceFindsPlantedNames(t *testing.T) {
	std := stdImporter(t)
	sources := map[string]string{
		"m/internal/p": `package p

type T struct{ n int }

func (t T) String() string { return "T" }
func (t T) Unused() int     { return t.n }

func Used() T            { return T{n: helper()} }
func helper() int        { return 1 }
func Planted() int       { return onlyPlanted() }
func onlyPlanted() int   { return 2 }
func orphan()            {}
func loop(n int)         { if n > 0 { loop(n - 1) } }
func Reference() int     { return referenceHelper() }
func referenceHelper() int { return 3 }
`,
		"m/cmd/x": `package main

import (
	"fmt"

	"m/internal/p"
)

func main() { fmt.Println(p.Used()) }
`,
	}
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{}
	for path, src := range sources {
		file, err := parser.ParseFile(fset, path+"/a.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkgs[path] = []*ast.File{file}
	}
	allow := map[string]string{
		"p.Reference": "unreached, allowed: kept with its helper",
		"p.Used":      "reached by main: the entry is stale",
		"p.Missing":   "declares nothing: the entry is stale",
	}
	s, err := reachFromMains(fset, pkgs, std, allow)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, complaint := range s.audit(allow) {
		got[complaint] = true
	}
	dead := func(key string) string {
		return s.declared[key].String() + ": " + key + " is reached by no cmd/, examples/ or bench/ program: delete it, with the tests only it serves"
	}
	want := []string{
		dead("p.Planted"),     // an exported function nothing calls
		dead("p.onlyPlanted"), // its helper, one level down
		dead("p.orphan"),      // an unexported helper nothing calls
		dead("p.loop"),        // calling itself is not a caller
		dead("p.T.Unused"),    // a method no interface requires
		"p.Used is reached by product code now: take it off the allow-list",
		"allow-list names p.Missing, which does not exist",
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("not reported: %s", w)
		}
		delete(got, w)
	}
	// T, T.String (fmt.Stringer), helper, Reference and referenceHelper
	// are reached or allowed.
	for complaint := range got {
		t.Errorf("reported, but reached or allowed: %s", complaint)
	}
}
