package flowtime_test

import (
	"cmp"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
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
// internal/flow, internal/plan, internal/deadline and internal/sched —, the
// simulator that replays it, internal/sim and internal/machine, and the
// RM around it, internal/rmserver and internal/store, to deciding from
// their inputs alone: no non-test file of them calls time.Now or
// time.Since, or a package-level math/rand function other than the
// constructors of a seeded generator, outside the seams below. Nor does a
// non-test file of a planner package start a goroutine outside its
// fan-out seam (goSeams), where each goroutine writes only its own part
// and the caller merges the parts in a fixed order. The ad-hoc
// gate admits against the plan the scheduler publishes, and a restarted or
// promoted RM plans again from the journaled work, so the same inputs must
// make the same plan and the same records; a seeded simulation must replay
// bit for bit.
func TestPlannerReadsNoWallClock(t *testing.T) {
	seeded := map[string]bool{"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true}
	for _, dir := range append(slices.Clip(plannerDirs), "internal/rmserver", "internal/store") {
		planner := slices.Contains(plannerDirs, dir)
		fset, files := parsePackage(t, dir, false)
		for _, f := range files {
			timePkg := importName(f, "time")
			randPkg := cmp.Or(importName(f, "math/rand"), importName(f, "math/rand/v2"))
			for _, decl := range f.Decls {
				clockSeam := slices.Contains(clockSeams[dir], funcName(decl))
				randSeam := slices.Contains(randSeams[dir], funcName(decl))
				goSeam := slices.Contains(goSeams[dir], funcName(decl))
				ast.Inspect(decl, func(n ast.Node) bool {
					if _, ok := n.(*ast.GoStmt); ok && planner && !goSeam {
						t.Errorf("%s starts a goroutine outside the fan-out seam %v", fset.Position(n.Pos()), goSeams[dir])
					}
					e, ok := n.(ast.Expr)
					if !ok {
						return true
					}
					if !clockSeam && timePkg != "" && (isCall(e, timePkg, "Now") || isCall(e, timePkg, "Since")) {
						t.Errorf("%s reads the wall clock", fset.Position(n.Pos()))
					}
					if call, ok := e.(*ast.CallExpr); ok && !randSeam && randPkg != "" {
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

// clockSeams are the functions, by package, that TestPlannerReadsNoWallClock
// lets read the clock, and only the clock. None of them decides what is
// planned or journaled from it:
//   - timed times the flow planner's calls and the integral repair for
//     the scheduler's stats and its record of the last replan;
//   - (*Server).Handler stamps the HTTP layer's registrations, heartbeats
//     and ticks with the time they arrived, which the server then decides
//     from;
//   - (*Server).recoverLocked and store.Open time the recovery they report;
//   - (*wal).waitSynced times each fsync for the durability stats;
//   - (*stopwatch).lap times a tick's phases for its record in the tick
//     ring, which is not journaled and which no decision reads.
var clockSeams = map[string][]string{
	"internal/core":     {"timed"},
	"internal/rmserver": {"(*Server).Handler", "(*Server).recoverLocked", "(*stopwatch).lap"},
	"internal/store":    {"Open", "(*wal).waitSynced"},
}

// goSeams are the functions (or the variables holding one), by package,
// that TestPlannerReadsNoWallClock lets start goroutines in a planner
// package:
//   - eachKind runs a replan's stages one goroutine per resource kind; each
//     writes only its kind's problem, which replan folds and merges in kind
//     order.
var goSeams = map[string][]string{
	"internal/core": {"eachKind"},
}

// randSeams are the functions, by package, that TestPlannerReadsNoWallClock
// lets call the unseeded generator, and only that:
//   - newInstance names the archive of this process's completed jobs;
//   - Backoff.Delay jitters an agent's retries.
var randSeams = map[string][]string{
	"internal/rmserver": {"newInstance", "Backoff.Delay"},
}

// TestQuantumIDOnlyAtTheWire holds internal/rmstate and internal/sim to
// knowing a quantum by its number alone: no non-test file of them names
// rmproto.QuantumID or rmproto.ParseQuantumID outside the seams below, or
// spells a string that opens with "q-". No lease, record field or map key
// there can then hold the ID a node is handed, so nothing there can order
// quanta by their spelling, which puts "q-10" before "q-9".
func TestQuantumIDOnlyAtTheWire(t *testing.T) {
	for _, dir := range []string{"internal/rmstate", "internal/sim"} {
		fset, files := parsePackage(t, dir, false)
		for _, f := range files {
			proto := importName(f, "flowtime/internal/rmproto")
			for _, decl := range f.Decls {
				seam := slices.Contains(quantumIDSeams[dir], funcName(decl))
				ast.Inspect(decl, func(n ast.Node) bool {
					switch e := n.(type) {
					case *ast.SelectorExpr:
						if !seam && proto != "" && isIdent(e.X, proto) && (e.Sel.Name == "QuantumID" || e.Sel.Name == "ParseQuantumID") {
							t.Errorf("%s names %s.%s outside %v", fset.Position(n.Pos()), proto, e.Sel.Name, quantumIDSeams[dir])
						}
					case *ast.BasicLit:
						if v, err := strconv.Unquote(e.Value); err == nil && e.Kind == token.STRING && strings.HasPrefix(v, "q-") {
							t.Errorf("%s spells a quantum ID, %s", fset.Position(n.Pos()), e.Value)
						}
					}
					return true
				})
			}
		}
	}
}

// quantumIDSeams are the functions, by package, that
// TestQuantumIDOnlyAtTheWire lets cross between a quantum's number and its
// ID: RecGrant.Quantum spells a grant's number for the heartbeat reply,
// and (*State).DecideConfirm reads the IDs a node confirms as numbers,
// an ID of no other form naming no lease.
var quantumIDSeams = map[string][]string{
	"internal/rmstate": {"RecGrant.Quantum", "(*State).DecideConfirm"},
}

// plannerDirs are the planner's packages and the simulator's that replays
// it, which must decide from their inputs alone.
var plannerDirs = []string{"internal/core", "internal/flow", "internal/plan", "internal/deadline", "internal/sched", "internal/sim", "internal/machine"}

// TestPlannerRangesNoMapUnordered holds the same packages, and
// internal/rmstate, whose deciders make the records the RM journals, to the
// other half of deciding from their inputs alone, and internal/rmserver and
// internal/store, which carry those records to the disk and the wire, too:
// Go randomizes map iteration order, so no non-test file of them ranges
// over a map unless the loop only collects the keys, all or those an if
// picks, into a slice that the very next statement sorts, or the loop
// carries a //det:unordered comment (on its line or the line before)
// saying why its order cannot show in any result.
func TestPlannerRangesNoMapUnordered(t *testing.T) {
	unordered := 0
	conf := types.Config{Importer: importer.ForCompiler(token.NewFileSet(), "source", nil)}
	for _, dir := range append(slices.Clip(plannerDirs), "internal/rmstate", "internal/rmserver", "internal/store") {
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
// slice, r's body being that one append or an if with no else around it,
// and next sorts that slice.
func collectsKeysSortedBy(r *ast.RangeStmt, next ast.Stmt) bool {
	key, ok := r.Key.(*ast.Ident)
	if !ok || len(r.Body.List) != 1 {
		return false
	}
	body := r.Body.List[0]
	if is, ok := body.(*ast.IfStmt); ok && is.Init == nil && is.Else == nil && len(is.Body.List) == 1 {
		body = is.Body.List[0]
	}
	as, ok := body.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	dst := types.ExprString(as.Lhs[0])
	app, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || !isIdent(app.Fun, "append") || len(app.Args) != 2 || types.ExprString(app.Args[0]) != dst || !isIdent(app.Args[1], key.Name) {
		return false
	}
	es, ok := next.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 || types.ExprString(call.Args[0]) != dst {
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

// TestPlannerDecidesInIntegers holds internal/deadline, internal/graph,
// internal/flow and internal/core to deciding in exact integers: no
// non-test file of them has an expression or a declaration of a float
// type — a float, or a slice, array, pointer, map or channel of one —
// outside the seams below. A window, a route or a grant is then a function
// of whole numbers alone, which no rounding, fused multiply-add or
// summation order can move (the paper's Lemma 2 makes stage 2 integral on
// whole-slot windows). It type-checks as TestPlannerRangesNoMapUnordered
// does.
func TestPlannerDecidesInIntegers(t *testing.T) {
	conf := types.Config{Importer: importer.ForCompiler(token.NewFileSet(), "source", nil)}
	for _, dir := range []string{"internal/deadline", "internal/graph", "internal/flow", "internal/core"} {
		fset, files := parsePackage(t, dir, false)
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}}
		if _, err := conf.Check(dir, fset, files, info); err != nil {
			t.Fatalf("type-check %s: %v", dir, err)
		}
		held := map[string]bool{}
		for _, f := range files {
			for _, decl := range f.Decls {
				name := funcName(decl)
				seam := slices.Contains(floatSeams[dir], name)
				ast.Inspect(decl, func(n ast.Node) bool {
					e, ok := n.(ast.Expr)
					if !ok {
						return true
					}
					typ := info.Types[e].Type
					if id, ok := e.(*ast.Ident); ok && info.Defs[id] != nil {
						typ = info.Defs[id].Type()
					}
					if !holdsFloat(typ) {
						return true
					}
					if !seam {
						t.Errorf("%s: %s is a %s outside the float seams %v", fset.Position(n.Pos()), types.ExprString(e), typ, floatSeams[dir])
					}
					held[name] = true
					return false
				})
			}
		}
		for _, name := range floatSeams[dir] {
			if !held[name] {
				t.Errorf("%s: the float seam %s holds no float: take it off the list", dir, name)
			}
		}
	}
}

// floatSeams are the declarations, by package, that
// TestPlannerDecidesInIntegers lets hold a float: the skyline's load θ·C_t
// as a float and the integral repair that rounds it to its budgets, until
// those budgets come from the levels' exact Num/Den:
//   - Skyline declares the load;
//   - (*Routing).LexMinMax, (*lexState).solve and (*lexState).settle make
//     it;
//   - (*kindProblem).repair rounds it.
//
// A seam that holds no float fails the test too, so the list only shrinks.
var floatSeams = map[string][]string{
	"internal/flow": {"Skyline", "(*Routing).LexMinMax", "(*lexState).solve", "(*lexState).settle"},
	"internal/core": {"(*kindProblem).repair"},
}

// holdsFloat reports whether t is a float or complex type, or a slice,
// array, pointer, map or channel of one.
func holdsFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&(types.IsFloat|types.IsComplex) != 0
	case interface{ Elem() types.Type }:
		return holdsFloat(u.Elem())
	}
	return false
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

// funcName names the function decl declares: "Name", "Recv.Name" or
// "(*Recv).Name"; for a declaration of one variable or one type, its name;
// "" for any other declaration.
func funcName(decl ast.Decl) string {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok {
		if g, ok := decl.(*ast.GenDecl); ok && len(g.Specs) == 1 {
			if v, ok := g.Specs[0].(*ast.ValueSpec); ok && len(v.Names) == 1 {
				return v.Names[0].Name
			}
			if ts, ok := g.Specs[0].(*ast.TypeSpec); ok {
				return ts.Name.Name
			}
		}
		return ""
	}
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return fn.Name.Name
	}
	if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
		return "(*" + types.ExprString(star.X) + ")." + fn.Name.Name
	}
	return types.ExprString(fn.Recv.List[0].Type) + "." + fn.Name.Name
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
