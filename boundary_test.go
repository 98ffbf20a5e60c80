package flowtime_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRMStateReadsNoClockOrIO holds internal/rmstate, the resource
// manager's replayed state, to being a state machine and nothing else: no
// non-test file of it imports a lock (sync), the file system (os), the
// network (net/...), randomness (math/rand) or the store, or calls
// time.Now or time.Since. What replay, a follower or any harness rebuilds
// from a journal is then what the live RM held, whatever clock or disk it
// ran beside.
func TestRMStateReadsNoClockOrIO(t *testing.T) {
	refused := func(path string) bool {
		for _, p := range []string{"sync", "os", "net", "math/rand", "flowtime/internal/store"} {
			if path == p || strings.HasPrefix(path, p+"/") {
				return true
			}
		}
		return false
	}
	fset, files := parseRMState(t, false)
	for _, f := range files {
		timePkg := ""
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if refused(path) {
				t.Errorf("%s imports %s", fset.Position(imp.Pos()), path)
			}
			if path == "time" {
				timePkg = "time"
				if imp.Name != nil {
					timePkg = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && timePkg != "" && (isCall(e, timePkg, "Now") || isCall(e, timePkg, "Since")) {
				t.Errorf("%s reads the wall clock", fset.Position(n.Pos()))
			}
			return true
		})
	}
}

// TestOnlyApplyMakesState holds internal/rmstate to one way of making what
// it holds: no file of it, its tests included, writes a Job, Workflow or
// Lease composite literal outside applyWorkflow, applyAdHoc and applyTick,
// which State.Apply runs for an admission record and a tick record, or
// assigns the live plan (a .plan field) outside Apply itself. The live RM,
// replay, a follower's ingest, a snapshot's restore and every test then
// all build a job, a workflow, a lease or the plan from the record that
// journals it.
func TestOnlyApplyMakesState(t *testing.T) {
	makers := map[string]bool{"applyWorkflow": true, "applyAdHoc": true, "applyTick": true}
	held := map[string]bool{"Job": true, "Workflow": true, "Lease": true}
	fset, files := parseRMState(t, true)
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			name := ""
			if fn != nil {
				name = fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if id, ok := n.Type.(*ast.Ident); ok && held[id.Name] && !makers[name] {
						t.Errorf("%s: a %s literal outside applyWorkflow, applyAdHoc and applyTick", fset.Position(n.Pos()), id.Name)
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "plan" && name != "Apply" {
							t.Errorf("%s: the plan assigned outside Apply", fset.Position(n.Pos()))
						}
					}
				}
				return true
			})
		}
	}
}

// parseRMState parses the Go files of internal/rmstate, its test files
// only when tests is set.
func parseRMState(t *testing.T, tests bool) (*token.FileSet, []*ast.File) {
	t.Helper()
	paths, err := filepath.Glob("internal/rmstate/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range paths {
		if !tests && strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatal("found no Go file in internal/rmstate")
	}
	return fset, files
}
