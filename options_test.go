package anybc

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// auditedOptions names every configuration struct of the module, by import
// path and type: each exported field is a knob some program must turn.
var auditedOptions = []string{
	"anybc/internal/runtime.Options",
	"anybc/internal/serve.Config",
	"anybc/internal/cluster.Options",
	"anybc/internal/simulate.Options",
	"anybc/internal/simulate.Machine",
	"anybc/internal/chaos.Config",
	"anybc/internal/core.Options",
	"anybc/internal/gcrm.SearchOptions",
	"anybc/internal/experiments.SimConfig",
}

// defaulting names the methods that fill a struct's own zero fields: what
// they assign to their receiver's type is a default, not a caller.
var defaulting = map[string]bool{"normalize": true, "withDefaults": true}

// optionSetters type-checks pkgs and returns every exported field of the
// structs in audited, keyed "pkg.Type.Field", and the fields some file gives
// a value: a key (or position) of a literal of the struct, or the target of
// an assignment or an increment. What a struct's defaulting method assigns
// to that struct does not count.
func optionSetters(fset *token.FileSet, pkgs map[string][]*ast.File, std types.Importer, audited []string) (map[string]token.Position, map[string]bool, error) {
	info, imp, paths, err := typeCheck(fset, pkgs, std)
	if err != nil {
		return nil, nil, err
	}
	fields := map[string]token.Position{}
	keyOf := map[types.Object]string{}
	for _, name := range audited {
		dot := strings.LastIndex(name, ".")
		p := imp.done[name[:dot]]
		if p == nil {
			return nil, nil, fmt.Errorf("no package %s", name[:dot])
		}
		tn, ok := p.Scope().Lookup(name[dot+1:]).(*types.TypeName)
		if !ok {
			return nil, nil, fmt.Errorf("no type %s", name)
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			return nil, nil, fmt.Errorf("%s is not a struct", name)
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				keyOf[f] = p.Name() + "." + tn.Name() + "." + f.Name()
				fields[keyOf[f]] = fset.Position(f.Pos())
			}
		}
	}

	set := map[string]bool{}
	for _, path := range paths {
		for _, file := range pkgs[path] {
			for _, decl := range file.Decls {
				// own is "pkg.Type." inside a defaulting method of Type.
				own := ""
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && defaulting[fd.Name.Name] {
					own = strings.TrimSuffix(surfaceKey(info.Defs[fd.Name]), fd.Name.Name)
				}
				mark := func(o types.Object) {
					if key, ok := keyOf[origin(o)]; ok && (own == "" || !strings.HasPrefix(key, own)) {
						set[key] = true
					}
				}
				assigned := func(e ast.Expr) {
					if sel, ok := e.(*ast.SelectorExpr); ok && info.Selections[sel] != nil && info.Selections[sel].Kind() == types.FieldVal {
						mark(info.Selections[sel].Obj())
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						st, ok := info.Types[n].Type.Underlying().(*types.Struct)
						if !ok {
							return true
						}
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								mark(info.Uses[kv.Key.(*ast.Ident)])
							} else {
								mark(st.Field(i))
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							assigned(lhs)
						}
					case *ast.IncDecStmt:
						assigned(n.X)
					}
					return true
				})
			}
		}
	}
	return fields, set, nil
}

// auditOptions returns one complaint per audited field nothing sets that is
// not allow-listed, and per allow-list entry that names no field or names one
// product code sets.
func auditOptions(fields map[string]token.Position, set map[string]bool, allow map[string]string) []string {
	var out []string
	for key, pos := range fields {
		if _, ok := allow[key]; !ok && !set[key] {
			out = append(out, pos.String()+": "+key+" is set by no non-test file of the module: delete it, with the code only it reaches")
		}
	}
	for key := range allow {
		if _, ok := fields[key]; !ok {
			out = append(out, "allow-list names "+key+", which does not exist")
		} else if set[key] {
			out = append(out, key+" is set by product code now: take it off the allow-list")
		}
	}
	sort.Strings(out)
	return out
}

// TestOptionsAreSetByProductCode is the guard behind "every option has a
// caller": an exported field of a configuration struct (auditedOptions) that
// no non-test file of the module — cmd/, examples/, internal/, bench/ — gives
// a value is a knob nobody can turn, and fails here unless it is on the
// allow-list below with the reason it stays. A struct's own defaulting
// method is not a caller. The list is meant to stay at six or fewer.
func TestOptionsAreSetByProductCode(t *testing.T) {
	const chaosSpeed = "tests pin it a few milliseconds or less so fault schedules run fast; product runs use the default"
	allow := map[string]string{
		"runtime.Options.ArrivalTimeout": "sizes the re-request fault budget; TestReRequestBudget* and TestLayersArmedOnlyWhenAsked pin it at 1ms, the 250ms default would take minutes",
		"runtime.Options.MaxReRequests":  "the other half of that budget; the same tests pin its semantics at 2-3 requests, not the default 50",
		"chaos.Config.MaxDelay":          chaosSpeed,
		"chaos.Config.ReorderFlush":      chaosSpeed,
		"chaos.Config.RedeliverAfter":    chaosSpeed,
		"simulate.Options.Scheduler":     "ROADMAP item 4d and BenchmarkAblationScheduler compare both ready-queue policies",
	}
	if len(allow) > 6 {
		t.Errorf("allow-list has %d entries: it is meant to stay at 6 or fewer", len(allow))
	}
	std := stdImporter(t)
	fset := token.NewFileSet()
	ctx := build.Default
	ctx.GOOS, ctx.GOARCH = "linux", "amd64"
	pkgs, err := loadModule(fset, ".", ctx)
	if err != nil {
		t.Fatal(err)
	}
	fields, set, err := optionSetters(fset, pkgs, std, auditedOptions)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) == 0 {
		t.Fatal("found no audited field set anywhere: the scan is broken")
	}
	for _, complaint := range auditOptions(fields, set, allow) {
		t.Error(complaint)
	}
	for key, why := range allow {
		t.Logf("%s: no product caller, kept: %s", key, why)
	}
	t.Logf("options audit: %d fields of %d structs, %d allow-listed", len(fields), len(auditedOptions), len(allow))
}

// TestOptionAuditFindsPlantedFields runs the audit over a module built in
// memory, so that an audit which silently stopped seeing fields or setters
// fails here instead of passing TestOptionsAreSetByProductCode.
func TestOptionAuditFindsPlantedFields(t *testing.T) {
	std := stdImporter(t)
	sources := map[string]string{
		"m/internal/p": `package p

type Config struct {
	Keyed, Assigned, Bumped, Defaulted int
	Planted, Allowed, Stale            int
	hidden                             int
}

type Pair struct{ A, B int }

func (c *Config) withDefaults() {
	if c.Defaulted == 0 {
		c.Defaulted = 1
	}
	c.hidden = 2
}

func Default() Config { return Config{Keyed: 1} }
`,
		"m/cmd/x": `package main

import "m/internal/p"

type wrap struct{ p.Config }

func main() {
	c := p.Default()
	c.Assigned = 3
	c.Bumped++
	w := wrap{}
	w.Stale = 4
	_ = []p.Pair{{1, 2}}
	_, _ = c, w
}
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
	fields, set, err := optionSetters(fset, pkgs, std, []string{"m/internal/p.Config", "m/internal/p.Pair"})
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{
		"p.Config.Allowed": "unset, allowed",
		"p.Config.Stale":   "set through an embedding struct: the entry is stale",
		"p.Config.Missing": "names no field: the entry is stale",
	}
	got := map[string]bool{}
	for _, complaint := range auditOptions(fields, set, allow) {
		got[complaint] = true
	}
	unset := func(key string) string {
		return fields[key].String() + ": " + key + " is set by no non-test file of the module: delete it, with the code only it reaches"
	}
	want := []string{
		unset("p.Config.Planted"),
		unset("p.Config.Defaulted"), // its own withDefaults is not a caller
		"p.Config.Stale is set by product code now: take it off the allow-list",
		"allow-list names p.Config.Missing, which does not exist",
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("not reported: %s", w)
		}
		delete(got, w)
	}
	// Keyed, Assigned, Bumped and both Pair fields (an unkeyed literal
	// inside a slice literal) are set; Allowed is allowed; hidden is not a
	// knob.
	for complaint := range got {
		t.Errorf("reported, but set or allowed: %s", complaint)
	}
	if len(fields) != 9 {
		t.Errorf("audited %d fields, want the 9 exported ones", len(fields))
	}
}
