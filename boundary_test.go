package flowtime_test

import (
	"cmp"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRMStateReadsNoClockOrIO holds internal/rmstate, the resource
// manager's replayed state, to being a state machine and nothing else: no
// non-test file of it imports a lock (sync), the file system (os), the
// network (net/...), randomness (math/rand), the store or the scheduler's
// plan (internal/plan), or calls time.Now or time.Since. What replay, a
// follower or any harness rebuilds from a journal is then what the live RM
// held, whatever clock or disk it ran beside, and the journal holds no
// state the scheduler derives.
func TestRMStateReadsNoClockOrIO(t *testing.T) {
	refused := func(path string) bool {
		for _, p := range []string{"sync", "os", "net", "math/rand", "flowtime/internal/store", "flowtime/internal/plan"} {
			if path == p || strings.HasPrefix(path, p+"/") {
				return true
			}
		}
		return false
	}
	fset, files := parsePackage(t, "internal/rmstate", false)
	for _, f := range files {
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); refused(path) {
				t.Errorf("%s imports %s", fset.Position(imp.Pos()), path)
			}
		}
		timePkg := importName(f, "time")
		ast.Inspect(f, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && timePkg != "" && (isCall(e, timePkg, "Now") || isCall(e, timePkg, "Since")) {
				t.Errorf("%s reads the wall clock", fset.Position(n.Pos()))
			}
			return true
		})
	}
}

// TestPlannerReadsNoWallClock holds the planner — internal/core,
// internal/flow, internal/plan, internal/deadline and internal/sched — and
// the simulator that replays it, internal/sim and internal/machine, to
// deciding from their inputs alone: no non-test file of them calls
// time.Now or time.Since, except inside core.(*FlowTime).runPlanner, which
// times each flow planner call for the stats, or calls a package-level
// math/rand function other than the constructors of a seeded generator.
// The ad-hoc gate admits against the plan the scheduler publishes, and a
// restarted or promoted RM plans again from the journaled work, so the
// same inputs must make the same plan; a seeded simulation must replay
// bit for bit.
func TestPlannerReadsNoWallClock(t *testing.T) {
	seeded := map[string]bool{"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true}
	for _, dir := range plannerDirs {
		fset, files := parsePackage(t, dir, false)
		for _, f := range files {
			timePkg := importName(f, "time")
			randPkg := cmp.Or(importName(f, "math/rand"), importName(f, "math/rand/v2"))
			for _, decl := range f.Decls {
				timed := dir == "internal/core" && isMethod(decl, "FlowTime", "runPlanner")
				ast.Inspect(decl, func(n ast.Node) bool {
					e, ok := n.(ast.Expr)
					if !ok {
						return true
					}
					if !timed && timePkg != "" && (isCall(e, timePkg, "Now") || isCall(e, timePkg, "Since")) {
						t.Errorf("%s reads the wall clock", fset.Position(n.Pos()))
					}
					if call, ok := e.(*ast.CallExpr); ok && randPkg != "" {
						if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isIdent(sel.X, randPkg) && !seeded[sel.Sel.Name] {
							t.Errorf("%s calls %s.%s, the unseeded generator", fset.Position(n.Pos()), randPkg, sel.Sel.Name)
						}
					}
					return true
				})
			}
		}
	}
}

// plannerDirs are the planner's packages and the simulator's that replays
// it, which must decide from their inputs alone.
var plannerDirs = []string{"internal/core", "internal/flow", "internal/plan", "internal/deadline", "internal/sched", "internal/sim", "internal/machine"}

// TestPlannerRangesNoMapUnordered holds the same packages to the other half
// of deciding from their inputs alone: Go randomizes map iteration order,
// so no non-test file of them ranges over a map unless the loop only
// collects the keys into a slice that the very next statement sorts, or
// the loop carries a //det:unordered comment (on its line or the line
// before) saying why its order cannot show in any result.
func TestPlannerRangesNoMapUnordered(t *testing.T) {
	unordered := 0
	conf := types.Config{Importer: importer.ForCompiler(token.NewFileSet(), "source", nil)}
	for _, dir := range plannerDirs {
		fset, files := parsePackage(t, dir, false)
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		if _, err := conf.Check(dir, fset, files, info); err != nil {
			t.Fatalf("type-check %s: %v", dir, err)
		}
		for _, f := range files {
			excused := map[int]bool{} // lines a //det:unordered comment with a reason covers
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if reason, ok := strings.CutPrefix(c.Text, "//det:unordered "); ok && strings.TrimSpace(reason) != "" {
						line := fset.Position(c.Slash).Line
						excused[line], excused[line+1] = true, true
					}
				}
			}
			sorted := map[*ast.RangeStmt]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				var list []ast.Stmt
				switch b := n.(type) {
				case *ast.BlockStmt:
					list = b.List
				case *ast.CaseClause:
					list = b.Body
				case *ast.CommClause:
					list = b.Body
				}
				for i := 0; i+1 < len(list); i++ {
					if r, ok := list[i].(*ast.RangeStmt); ok && collectsKeysSortedBy(r, list[i+1]) {
						sorted[r] = true
					}
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				r, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, isMap := info.Types[r.X].Type.Underlying().(*types.Map); !isMap || sorted[r] {
					return true
				}
				if excused[fset.Position(r.For).Line] {
					unordered++
					return true
				}
				t.Errorf("%s ranges over a map in random order: collect and sort its keys, or mark the loop //det:unordered <reason>", fset.Position(r.For))
				return true
			})
		}
	}
	t.Logf("%d map ranges marked //det:unordered", unordered)
}

// collectsKeysSortedBy reports whether r only appends its map's keys to a
// slice, r's body being that one append, and next sorts that slice.
func collectsKeysSortedBy(r *ast.RangeStmt, next ast.Stmt) bool {
	key, ok := r.Key.(*ast.Ident)
	if !ok || (r.Value != nil && !isIdent(r.Value, "_")) || len(r.Body.List) != 1 {
		return false
	}
	as, ok := r.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	dst, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	app, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || !isIdent(app.Fun, "append") || len(app.Args) != 2 || !isIdent(app.Args[0], dst.Name) || !isIdent(app.Args[1], key.Name) {
		return false
	}
	es, ok := next.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 || !isIdent(call.Args[0], dst.Name) {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && sorts[pkg.Name+"."+sel.Sel.Name]
}

// sorts are the calls that sort a slice in place.
var sorts = map[string]bool{
	"sort.Strings": true, "sort.Ints": true, "sort.Slice": true, "sort.SliceStable": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// TestOnlyApplyMakesState holds internal/rmstate to one way of making what
// it holds: no file of it, its tests included, writes a Job, Workflow or
// Lease composite literal outside applyWorkflow, applyAdHoc and applyTick,
// which State.Apply runs for an admission record and a tick record. The
// live RM, replay, a follower's ingest, a snapshot's restore and every
// test then all build a job, a workflow or a lease from the record that
// journals it.
func TestOnlyApplyMakesState(t *testing.T) {
	makers := map[string]bool{"applyWorkflow": true, "applyAdHoc": true, "applyTick": true}
	held := map[string]bool{"Job": true, "Workflow": true, "Lease": true}
	fset, files := parsePackage(t, "internal/rmstate", true)
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			name := ""
			if fn != nil {
				name = fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if lit, ok := n.(*ast.CompositeLit); ok {
					if id, ok := lit.Type.(*ast.Ident); ok && held[id.Name] && !makers[name] {
						t.Errorf("%s: a %s literal outside applyWorkflow, applyAdHoc and applyTick", fset.Position(lit.Pos()), id.Name)
					}
				}
				return true
			})
		}
	}
}

// parsePackage parses the Go files of the package in dir, its test files
// only when tests is set.
func parsePackage(t *testing.T, dir string, tests bool) (*token.FileSet, []*ast.File) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range paths {
		if !tests && strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("found no Go file in %s", dir)
	}
	return fset, files
}

// importName is the name f refers to the package at path by, "" when f
// does not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == path {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return filepath.Base(strings.TrimSuffix(path, "/v2"))
		}
	}
	return ""
}

// isMethod reports whether decl declares the method name on *recv or recv.
func isMethod(decl ast.Decl, recv, name string) bool {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok || fn.Recv == nil || len(fn.Recv.List) != 1 || fn.Name.Name != name {
		return false
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	return isIdent(typ, recv)
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
