package runtime

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"anybc/internal/chaos"
	"anybc/internal/cluster"
	"anybc/internal/dist"
)

// TestOptionsRejectMeaninglessCombinations pins normalize's up-front
// rejections: each row sets a field that used to be silently ignored because
// the field it depends on is unset, or because the shared cluster overrides
// it, and must now fail before anything runs, naming the reason.
func TestOptionsRejectMeaninglessCombinations(t *testing.T) {
	const mt, b = 4, 3
	d := dist.NewTwoDBC(2, 2)
	flat := cluster.New(d.Nodes())
	defer flat.Close()
	lossy, err := chaos.New(chaos.Config{Seed: 1, PDrop: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opt  Options
		want string // substring of the error
	}{
		{"negative ArrivalTimeout", Options{ArrivalTimeout: -1}, "negative ArrivalTimeout"},
		{"Broadcast against the shared cluster's mode",
			Options{Cluster: flat, Broadcast: cluster.BroadcastTree}, "tree broadcast requested"},
		{"delivery faults on a shared cluster",
			Options{Cluster: flat, Chaos: lossy}, "delivery faults"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := FactorLU(mt, b, d, GenDiagDominant(mt, b, 1), tc.opt)
			if err == nil {
				t.Fatal("accepted and silently ignored")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error does not name the reason (%q): %v", tc.want, err)
			}
		})
	}
}

// optionsSetBy adds to set every Options field that file — a parsed non-test
// file of another package — gives a value: a key of a runtime.Options{…}
// literal, or the field of an x.Field = … assignment where x (a variable or
// struct field) is assigned such a literal somewhere in the same file.
// Syntactic on purpose: names, not types.
func optionsSetBy(file *ast.File, set map[string]bool) {
	pkg := ""
	for _, imp := range file.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "anybc/internal/runtime" {
			if pkg = "runtime"; imp.Name != nil {
				pkg = imp.Name.Name
			}
		}
	}
	if pkg == "" {
		return
	}
	isLiteral := func(e ast.Expr) bool {
		lit, ok := e.(*ast.CompositeLit)
		if !ok {
			return false
		}
		sel, ok := lit.Type.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Options" {
			return false
		}
		x, ok := sel.X.(*ast.Ident)
		return ok && x.Name == pkg
	}
	// leaf names the last identifier of x or a.b.x.
	leaf := func(e ast.Expr) string {
		switch e := e.(type) {
		case *ast.Ident:
			return e.Name
		case *ast.SelectorExpr:
			return e.Sel.Name
		}
		return ""
	}
	holders := map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if isLiteral(n) {
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						set[leaf(kv.Key)] = true
					}
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if len(n.Lhs) == len(n.Rhs) && isLiteral(rhs) {
					holders[leaf(n.Lhs[i])] = true
				}
			}
		}
		return true
	})
	ast.Inspect(file, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && holders[leaf(sel.X)] {
					set[sel.Sel.Name] = true
				}
			}
		}
		return true
	})
}

// TestOptionsAreSetByProductCode is the guard behind "every option does
// something": an exported Options field that no non-test file of the module
// (cmd, examples, the other internal packages, bench/) ever sets is an option
// nobody can feel, and fails here — unless it is on the allow-list below with
// the reason it stays. The list is meant to stay this short.
func TestOptionsAreSetByProductCode(t *testing.T) {
	unset := map[string]string{
		"ArrivalTimeout": "sizes the re-request fault budget; TestReRequestBudget* and TestLayersArmedOnlyWhenAsked pin it at 1ms, the 250ms default would take minutes",
		"MaxReRequests":  "the other half of that budget; the same tests pin its semantics at 2-3 requests, not the default 50",
	}
	set := map[string]bool{}
	fset := token.NewFileSet()
	const root = "../.." // the module root, from internal/runtime
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if name := d.Name(); d.IsDir() {
			if rel, _ := filepath.Rel(root, path); rel != "." && (strings.HasPrefix(name, ".") || rel == filepath.Join("internal", "runtime")) {
				return filepath.SkipDir // dot-directories, and the package itself: normalize's defaults are not callers
			}
			return nil
		} else if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		optionsSetBy(file, set)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(Options{})
	fields := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fields[name] = true
		switch why, allowed := unset[name]; {
		case !typ.Field(i).IsExported():
		case set[name] && allowed:
			t.Errorf("Options.%s is set by product code now: take it off the allow-list", name)
		case !set[name] && !allowed:
			t.Errorf("Options.%s is set by no non-test file of the module: delete it, with the code only it reaches", name)
		case allowed:
			t.Logf("Options.%s: no product caller, kept: %s", name, why)
		}
	}
	for name := range unset {
		if !fields[name] {
			t.Errorf("allow-list names Options.%s, which does not exist", name)
		}
	}
	if len(set) == 0 {
		t.Error("found no runtime.Options literal in the module: the scan is broken")
	}
}
