package flowtime_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/rmserver"
	"flowtime/internal/store"
)

// docsChecked are the documents whose backticked names must exist.
var docsChecked = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// codeSpan is one inline code span of a markdown document and the line it
// opens on.
type codeSpan struct {
	doc  string
	line int
	text string
}

func (c codeSpan) String() string { return fmt.Sprintf("%s:%d: `%s`", c.doc, c.line, c.text) }

// codeSpans returns the inline code spans of a markdown document, fenced
// blocks skipped. A span may run across a line break; it is reported at
// the line it opens on, with the break read as a space.
func codeSpans(t *testing.T, doc string) []codeSpan {
	t.Helper()
	raw, err := os.ReadFile(doc)
	if err != nil {
		t.Fatalf("read %s: %v", doc, err)
	}
	var spans []codeSpan
	var open *codeSpan
	fenced := false
	for i, line := range strings.Split(string(raw), "\n") {
		if open == nil && strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		for {
			j := strings.IndexByte(line, '`')
			if j < 0 {
				break
			}
			if open == nil {
				open = &codeSpan{doc: doc, line: i + 1}
			} else {
				open.text += line[:j]
				spans = append(spans, *open)
				open = nil
			}
			line = line[j+1:]
		}
		if open != nil {
			open.text += line + " "
		}
	}
	return spans
}

// TestDocsNameWhatExists keeps the documents from naming what the code
// no longer has: every backticked metric name is one GET /metrics prints,
// every backticked flag in a README flag-table row is one a cmd/ binary
// defines (and every flag of ftrm and ftnode has a row), every backticked
// pkg.Ident of a package under internal/ is declared in that package,
// every backticked CamelCase Ident or Type.Member is a name the module's
// Go files declare or select, every test pattern in the Makefile names a
// test that exists, every DESIGN.md section reference names a heading
// DESIGN.md has, and every backticked repo path exists.
func TestDocsNameWhatExists(t *testing.T) {
	var spans []codeSpan
	for _, doc := range docsChecked {
		spans = append(spans, codeSpans(t, doc)...)
	}
	t.Run("metrics", func(t *testing.T) { checkMetricNames(t, spans) })
	t.Run("flags", func(t *testing.T) { checkFlags(t) })
	t.Run("identifiers", func(t *testing.T) { checkIdentifiers(t, spans) })
	t.Run("makefile", func(t *testing.T) { checkMakefile(t) })
	t.Run("sections", func(t *testing.T) { checkSections(t) })
	t.Run("paths", func(t *testing.T) { checkPaths(t, spans) })
}

// sectionRef matches a DESIGN.md section reference. The paper's sections
// are roman (§IV), so a § before a digit is always one of DESIGN.md's.
var sectionRef = regexp.MustCompile(`§(\d+(?:\.\d+)?)`)

// designHeading matches a numbered DESIGN.md heading: "## 4. Title" or
// "### 4.2 Title".
var designHeading = regexp.MustCompile(`^#{2,3} (\d+(?:\.\d+)?)\.? `)

// sectionSources are the files besides DESIGN.md and the module's Go
// comments whose section references must resolve. CHANGES.md and
// ROADMAP.md are history and cite the numbering of their day.
var sectionSources = []string{"README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md", "Makefile", ".github/workflows/ci.yml"}

// checkSections checks that every section reference in DESIGN.md, the
// sectionSources and the comments of the module's Go files names a
// heading DESIGN.md has.
func checkSections(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatalf("read DESIGN.md: %v", err)
	}
	headings := make(map[string]bool)
	for _, line := range strings.Split(string(raw), "\n") {
		if m := designHeading.FindStringSubmatch(line); m != nil {
			headings[m[1]] = true
		}
	}
	if len(headings) == 0 {
		t.Fatal("DESIGN.md has no numbered headings")
	}
	check := func(where, text string) {
		for _, m := range sectionRef.FindAllStringSubmatch(text, -1) {
			if !headings[m[1]] {
				t.Errorf("%s: §%s names no DESIGN.md heading", where, m[1])
			}
		}
	}
	for i, line := range strings.Split(string(raw), "\n") {
		check(fmt.Sprintf("DESIGN.md:%d", i+1), line)
	}
	for _, doc := range sectionSources {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("read %s: %v", doc, err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			check(fmt.Sprintf("%s:%d", doc, i+1), line)
		}
	}
	fset := token.NewFileSet()
	walkModule(t, func(path string) {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		for _, group := range f.Comments {
			for _, c := range group.List {
				check(fset.Position(c.Pos()).String(), c.Text)
			}
		}
	})
}

// pathPrefixes open a backticked span that names a path from the repo
// root.
var pathPrefixes = []string{"internal/", "cmd/", "examples/", "testdata/", "bench/", ".github/"}

// goFileName matches a span that is a Go file name, bare or under a
// package directory (rmserver/persist.go).
var goFileName = regexp.MustCompile(`^[A-Za-z0-9_./-]*[A-Za-z0-9_]\.go$`)

// checkPaths checks that every backticked span naming a repo path — one
// opening with a pathPrefixes entry, its first word taken, or a Go file
// name — names something that exists: a prefixed path (a glob allowed)
// from the repo root, a dir/file.go from the root or under internal/, a
// bare file.go anywhere in the module.
func checkPaths(t *testing.T, spans []codeSpan) {
	var goFiles map[string]bool
	for _, s := range spans {
		word, _, _ := strings.Cut(strings.TrimSpace(s.text), " ")
		prefixed := false
		for _, p := range pathPrefixes {
			prefixed = prefixed || strings.HasPrefix(word, p)
		}
		switch {
		case prefixed:
			if m, _ := filepath.Glob(word); len(m) == 0 {
				t.Errorf("%v: no repo path %s", s, word)
			}
		case goFileName.MatchString(s.text) && strings.Contains(s.text, "/"):
			_, errRoot := os.Stat(s.text)
			_, errInternal := os.Stat(filepath.Join("internal", s.text))
			if errRoot != nil && errInternal != nil {
				t.Errorf("%v: no Go file %s at the repo root or under internal/", s, s.text)
			}
		case goFileName.MatchString(s.text):
			if goFiles == nil {
				goFiles = make(map[string]bool)
				walkModule(t, func(path string) { goFiles[filepath.Base(path)] = true })
			}
			if !goFiles[s.text] {
				t.Errorf("%v: no Go file of the repo is named %s", s, s.text)
			}
		}
	}
}

// metricSpan matches a span that is one metric name: a trailing _ or *
// makes it a family prefix, {a,b} a brace expansion, {label} a label.
var metricSpan = regexp.MustCompile(`^(flowtime_[a-z0-9_]*)(\*|\{([^}]*)\})?$`)

func checkMetricNames(t *testing.T, spans []codeSpan) {
	printed := printedMetrics(t)
	exists := func(name string, prefix bool) bool {
		for p := range printed {
			if p == name || prefix && strings.HasPrefix(p, name) {
				return true
			}
		}
		return false
	}
	for _, s := range spans {
		m := metricSpan.FindStringSubmatch(s.text)
		if m == nil {
			continue
		}
		names, prefix := []string{m[1]}, m[2] == "*" || strings.HasSuffix(m[1], "_")
		if alts := m[3]; strings.Contains(alts, ",") {
			names, prefix = nil, false
			for _, alt := range strings.Split(alts, ",") {
				names = append(names, m[1]+strings.TrimSpace(alt))
			}
		}
		for _, name := range names {
			if !exists(name, prefix) {
				t.Errorf("%v: GET /metrics prints no metric %s", s, name)
			}
		}
	}
}

// printedMetrics returns every metric name GET /metrics prints on an RM
// with each optional block switched on: a store, plan streaming and the
// ad-hoc gate.
func printedMetrics(t *testing.T) map[string]bool {
	t.Helper()
	st, err := store.Open(store.Options{Dir: t.TempDir(), Policy: store.SyncNever})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st.Close()
	rm, err := rmserver.New(rmserver.Config{
		SlotDur:   time.Second,
		Scheduler: core.New(core.DefaultConfig()),
		Store:     st,
		AdHocGate: true,
	})
	if err != nil {
		t.Fatalf("rmserver.New: %v", err)
	}
	srv := httptest.NewServer(rm.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	printed := make(map[string]bool)
	for _, line := range strings.Split(string(body), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			line = name
		} else if strings.HasPrefix(line, "#") {
			continue
		}
		if name, _, _ := strings.Cut(line, " "); name != "" {
			name, _, _ = strings.Cut(name, "{")
			printed[name] = true
		}
	}
	return printed
}

// flagSpan matches a span that is one command-line flag.
var flagSpan = regexp.MustCompile(`^-[a-z][a-z0-9-]*$`)

// flagTableHeading matches the line that opens a binary's flag table.
var flagTableHeading = regexp.MustCompile("`(ft[a-z]+)` flags")

// tableDocumented are the binaries whose every flag must have a row in
// their README flag table.
var tableDocumented = []string{"ftrm", "ftnode"}

// checkFlags checks README's flag-table rows — table lines whose first
// cell opens with a backticked flag — against the cmd/ binaries both
// ways: each flag in a row is one a binary defines, and each flag a
// tableDocumented binary defines has a row in the table under its
// "`name` flags" line.
func checkFlags(t *testing.T) {
	defined := definedFlags(t)
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("read README.md: %v", err)
	}
	lines := strings.Split(string(raw), "\n")
	// tableOf[i] is the binary whose flag table line i belongs to: a
	// heading opens a table, and any other line outside one closes it.
	tableOf := make([]string, len(lines))
	table := ""
	for i, line := range lines {
		if m := flagTableHeading.FindStringSubmatch(line); m != nil {
			table = m[1]
		} else if line != "" && !strings.HasPrefix(line, "|") {
			table = ""
		}
		tableOf[i] = table
	}
	rows := make(map[string]map[string]bool) // binary -> flags with a row
	for _, s := range codeSpans(t, "README.md") {
		if !flagSpan.MatchString(s.text) || !strings.HasPrefix(lines[s.line-1], "| `-") {
			continue
		}
		name := strings.TrimPrefix(s.text, "-")
		found := false
		for _, flags := range defined {
			found = found || flags[name]
		}
		if !found {
			t.Errorf("%v: no cmd/ binary defines the flag %s", s, s.text)
		}
		if rows[tableOf[s.line-1]] == nil {
			rows[tableOf[s.line-1]] = make(map[string]bool)
		}
		rows[tableOf[s.line-1]][name] = true
	}
	for _, bin := range tableDocumented {
		if len(defined[bin]) == 0 {
			t.Errorf("cmd/%s defines no flags", bin)
		}
		for name := range defined[bin] {
			if !rows[bin][name] {
				t.Errorf("cmd/%s defines -%s, but README's `%s` flags table has no row for it", bin, name, bin)
			}
		}
	}
}

// flagNameArg is, for each flag-defining function of package flag (and
// the FlagSet method of the same name), the index of its name argument.
var flagNameArg = map[string]int{
	"String": 0, "Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0,
	"Float64": 0, "Duration": 0, "Func": 0, "BoolFunc": 0,
	"StringVar": 1, "BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1,
	"Uint64Var": 1, "Float64Var": 1, "DurationVar": 1, "Var": 1, "TextVar": 1,
}

// definedFlags parses every non-test file of every cmd/ binary and returns,
// by binary, the names its flag calls define — on package flag or on a
// variable assigned from flag.NewFlagSet.
func definedFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	files, err := filepath.Glob("cmd/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	defined := make(map[string]map[string]bool)
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		bin := filepath.Base(filepath.Dir(path))
		if defined[bin] == nil {
			defined[bin] = make(map[string]bool)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		sets := map[string]bool{"flag": true}
		ast.Inspect(f, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && isCall(as.Rhs[0], "flag", "NewFlagSet") {
					sets[id.Name] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv, ok := sel.X.(*ast.Ident)
			arg, known := flagNameArg[sel.Sel.Name]
			if !ok || !known || !sets[recv.Name] || len(call.Args) <= arg {
				return true
			}
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					defined[bin][name] = true
				}
			}
			return true
		})
	}
	if len(defined) == 0 {
		t.Fatal("found no flag definitions under cmd/")
	}
	return defined
}

func isCall(e ast.Expr, pkg, fn string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg && sel.Sel.Name == fn
}

// identSpan matches a span that is a dotted Go name, optionally called:
// pkg.Ident, pkg.Type.Member, pkg.Func(...).
var identSpan = regexp.MustCompile(`^([a-z][a-z0-9]*)((?:\.[A-Za-z_][A-Za-z0-9_]*)+)(\(.*\))?$`)

// fileSuffixes are the last segments that make a dotted span a file name.
var fileSuffixes = map[string]bool{"go": true, "md": true, "json": true, "log": true, "snap": true, "mps": true, "csv": true, "txt": true}

// bareSpan matches a span that is a CamelCase Go name or a selection on
// one, optionally called: Ident, Type.Member, Type.Member(...). A name with
// an underscore (R_t, FlowTime_no_ds) is notation, not CamelCase.
var bareSpan = regexp.MustCompile(`^([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?(\(.*\))?$`)

func checkIdentifiers(t *testing.T, spans []codeSpan) {
	metricNames := benchmarkLayerMetrics(t)
	pkgs := make(map[string]*pkgNames)
	var module map[string]bool
	for _, s := range spans {
		if m := bareSpan.FindStringSubmatch(s.text); m != nil && !fileSuffixes[m[2]] {
			if module == nil {
				module = moduleNames(t)
			}
			for _, id := range m[1:3] {
				if id != "" && !module[id] {
					t.Errorf("%v: no Go file of the module declares or selects %s", s, id)
				}
			}
			continue
		}
		m := identSpan.FindStringSubmatch(s.text)
		if m == nil {
			continue
		}
		pkg, path := m[1], strings.Split(m[2][1:], ".")
		if fileSuffixes[path[len(path)-1]] || metricNames[pkg+"."+path[0]] {
			continue
		}
		names, ok := pkgs[pkg]
		if !ok {
			names = packageNames(t, filepath.Join("internal", pkg))
			pkgs[pkg] = names
		}
		if names == nil {
			continue // not a package under internal/
		}
		if len(path) == 1 && testFunc.MatchString(path[0]) {
			if !names.tests[path[0]] {
				t.Errorf("%v: package %s has no test function %s", s, pkg, path[0])
			}
			continue
		}
		for i, id := range path {
			if !names.member[id] && (i > 0 || !names.top[id]) {
				t.Errorf("%v: package %s declares no %s", s, pkg, strings.Join(path[:i+1], "."))
				break
			}
		}
	}
}

// moduleNames returns every identifier of every Go file of the module,
// test files included: the names they declare, and the names they select,
// which cover what the documents cite from other modules (gzip's
// BestSpeed). bench/ is a module of its own and is left out.
func moduleNames(t *testing.T) map[string]bool {
	t.Helper()
	names := make(map[string]bool)
	fset := token.NewFileSet()
	walkModule(t, func(path string) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				names[id.Name] = true
			}
			return true
		})
	})
	return names
}

// walkModule calls fn with the path of every Go file of the module, test
// files included. bench/ is a module of its own and is left out.
func walkModule(t *testing.T, fn func(path string)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			_, modErr := os.Stat(filepath.Join(path, "go.mod"))
			if path != "." && (modErr == nil || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir // another module (bench/), or .git
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			fn(path)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk the module: %v", err)
	}
}

// testFunc matches the name of a function go test runs.
var testFunc = regexp.MustCompile(`^(Test|Fuzz|Benchmark|Example)[A-Z_]`)

// pkgNames are the names a package's non-test files declare — top-level
// declarations, and methods and struct fields of any type — and the
// functions its test files hand to go test, which the documents cite as
// pkg.TestName.
type pkgNames struct {
	top, member, tests map[string]bool
}

// packageNames parses the package in dir, or returns nil when there is no
// such package.
func packageNames(t *testing.T, dir string) *pkgNames {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		return nil
	}
	names := &pkgNames{top: make(map[string]bool), member: make(map[string]bool), tests: make(map[string]bool)}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && testFunc.MatchString(fn.Name.Name) {
					names.tests[fn.Name.Name] = true
				}
			}
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names.top[d.Name.Name] = true
				} else {
					names.member[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names.top[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names.top[n.Name] = true
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var fields *ast.FieldList
			switch n := n.(type) {
			case *ast.StructType:
				fields = n.Fields
			case *ast.InterfaceType:
				fields = n.Methods
			default:
				return true
			}
			for _, fld := range fields.List {
				for _, n := range fld.Names {
					names.member[n.Name] = true
				}
				if len(fld.Names) == 0 { // embedded: the field is named by its type
					typ := fld.Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					switch typ := typ.(type) {
					case *ast.Ident:
						names.member[typ.Name] = true
					case *ast.SelectorExpr:
						names.member[typ.Sel.Name] = true
					}
				}
			}
			return true
		})
	}
	return names
}

// benchmarkLayerMetrics returns BENCHMARK.json's per-layer metric names,
// which read like pkg.ident but name measurements, not declarations.
func benchmarkLayerMetrics(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var bench struct {
		PerLayer []struct {
			Name string `json:"name"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatalf("decode BENCHMARK.json: %v", err)
	}
	names := make(map[string]bool, len(bench.PerLayer))
	for _, m := range bench.PerLayer {
		names[m.Name] = true
	}
	return names
}

// checkMakefile checks the test patterns the Makefile hands go test: each
// alternative of a -run pattern must match a test, fuzz target or example
// of a package its line tests, and each -fuzz pattern a fuzz target. A
// deleted test otherwise drops out of a target's run silently.
func checkMakefile(t *testing.T) {
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatalf("read Makefile: %v", err)
	}
	for i, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(strings.ReplaceAll(line, "$$", "$"))
		if len(fields) < 2 || fields[0] != "$(GO)" || fields[1] != "test" {
			continue
		}
		tests := make(map[string]bool)
		var patterns [][2]string // flag, pattern
		for j, f := range fields {
			switch {
			case strings.HasPrefix(f, "./") && !strings.HasSuffix(f, "..."):
				names := packageNames(t, f)
				if names == nil {
					t.Errorf("Makefile:%d: no Go package in %s", i+1, f)
					continue
				}
				for name := range names.tests {
					tests[name] = true
				}
			case (f == "-run" || f == "-fuzz") && j+1 < len(fields):
				patterns = append(patterns, [2]string{f, strings.Trim(fields[j+1], "'\"")})
			}
		}
		for _, p := range patterns {
			for _, alt := range strings.Split(p[1], "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("Makefile:%d: %s %q: %v", i+1, p[0], alt, err)
					continue
				}
				if re.MatchString("") {
					continue // '^$': run no tests, on purpose
				}
				found := false
				for name := range tests {
					if re.MatchString(name) && (p[0] == "-run" || strings.HasPrefix(name, "Fuzz")) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("Makefile:%d: %s alternative %q names no function of the packages the line tests", i+1, p[0], alt)
				}
			}
		}
	}
}
