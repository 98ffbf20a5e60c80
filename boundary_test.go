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
	files, err := filepath.Glob("internal/rmstate/*.go")
	if err != nil {
		t.Fatal(err)
	}
	refused := func(path string) bool {
		for _, p := range []string{"sync", "os", "net", "math/rand", "flowtime/internal/store"} {
			if path == p || strings.HasPrefix(path, p+"/") {
				return true
			}
		}
		return false
	}
	fset := token.NewFileSet()
	checked := 0
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", file, err)
		}
		checked++
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
	if checked == 0 {
		t.Fatal("found no Go file in internal/rmstate")
	}
}
