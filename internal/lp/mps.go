package lp

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file implements a practical subset of the MPS linear-program
// interchange format (the lingua franca of LP solvers, including the
// CPLEX this package replaces): sections NAME, ROWS (N/L/G/E), COLUMNS,
// RHS, and BOUNDS (UP, LO, FX, FR, MI, PL). Free-form (whitespace-
// separated) input is accepted. RANGES, integer markers, and objective
// constants are not supported and are reported as errors rather than
// silently ignored.

// MPSModel couples a parsed model with its symbol tables.
type MPSModel struct {
	// Name is the NAME record (may be empty).
	Name string
	// Model is the materialized LP (minimization).
	Model *Model
	// VarNames maps variable names to model variables.
	VarNames map[string]Var
	// RowNames lists constraint names in model order.
	RowNames []string
	// ObjName is the objective row's name.
	ObjName string
}

// ReadMPS parses an MPS document.
func ReadMPS(r io.Reader) (*MPSModel, error) {
	out := &MPSModel{
		Model:    NewModel(),
		VarNames: make(map[string]Var),
	}
	type rowInfo struct {
		sense Sense
		terms []Term
		rhs   float64
	}
	var (
		section  string
		objTerms = map[Var]float64{}
		rowOrder []string
		rows     = map[string]*rowInfo{}
		// Bounds are applied after COLUMNS; defaults are [0, +inf).
		loBound = map[string]float64{}
		hiBound = map[string]float64{}
		freeVar = map[string]bool{}
	)

	getVar := func(name string) Var {
		if v, ok := out.VarNames[name]; ok {
			return v
		}
		// Bounds are rewritten at the end; start permissive on the upper
		// side and at the conventional 0 lower bound.
		v := out.Model.MustVar(name, 0, Inf)
		out.VarNames[name] = v
		return v
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if trimmed := strings.TrimSpace(line); trimmed == "" || strings.HasPrefix(trimmed, "*") {
			continue
		}
		fields := strings.Fields(line)
		// Section headers start in column 1 (no leading whitespace).
		if !strings.HasPrefix(line, " ") && !strings.HasPrefix(line, "\t") {
			section = strings.ToUpper(fields[0])
			switch section {
			case "NAME":
				if len(fields) > 1 {
					out.Name = fields[1]
				}
			case "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA", "OBJSENSE":
				// handled below / ignored payload
			case "RANGES":
				return nil, fmt.Errorf("lp: mps line %d: RANGES section not supported", lineNo)
			default:
				return nil, fmt.Errorf("lp: mps line %d: unknown section %q", lineNo, section)
			}
			if section == "ENDATA" {
				break
			}
			continue
		}

		switch section {
		case "ROWS":
			if len(fields) != 2 {
				return nil, fmt.Errorf("lp: mps line %d: malformed ROWS record", lineNo)
			}
			kind, name := strings.ToUpper(fields[0]), fields[1]
			switch kind {
			case "N":
				if out.ObjName != "" {
					return nil, fmt.Errorf("lp: mps line %d: multiple objective rows", lineNo)
				}
				if _, dup := rows[name]; dup {
					return nil, fmt.Errorf("lp: mps line %d: duplicate row %q", lineNo, name)
				}
				out.ObjName = name
			case "L", "G", "E":
				if _, dup := rows[name]; dup || name == out.ObjName {
					return nil, fmt.Errorf("lp: mps line %d: duplicate row %q", lineNo, name)
				}
				sense := map[string]Sense{"L": LE, "G": GE, "E": EQ}[kind]
				rows[name] = &rowInfo{sense: sense}
				rowOrder = append(rowOrder, name)
			default:
				return nil, fmt.Errorf("lp: mps line %d: unknown row type %q", lineNo, kind)
			}
		case "COLUMNS":
			// Pairs: column row value [row value].
			// (A row may be named 'MARKER'; a marker's third field is quoted.)
			if len(fields) == 3 && strings.EqualFold(fields[1], "'MARKER'") && strings.HasPrefix(fields[2], "'") {
				return nil, fmt.Errorf("lp: mps line %d: integer markers not supported", lineNo)
			}
			if len(fields) != 3 && len(fields) != 5 {
				return nil, fmt.Errorf("lp: mps line %d: malformed COLUMNS record", lineNo)
			}
			col := getVar(fields[0])
			for i := 1; i+1 < len(fields); i += 2 {
				rowName := fields[i]
				val, err := strconv.ParseFloat(fields[i+1], 64)
				if err != nil {
					return nil, fmt.Errorf("lp: mps line %d: bad value %q", lineNo, fields[i+1])
				}
				if rowName == out.ObjName {
					objTerms[col] += val
					continue
				}
				ri, ok := rows[rowName]
				if !ok {
					return nil, fmt.Errorf("lp: mps line %d: unknown row %q", lineNo, rowName)
				}
				ri.terms = append(ri.terms, Term{Var: col, Coef: val})
			}
		case "RHS":
			// Pairs: rhsname row value [row value].
			if len(fields) != 3 && len(fields) != 5 {
				return nil, fmt.Errorf("lp: mps line %d: malformed RHS record", lineNo)
			}
			for i := 1; i+1 < len(fields); i += 2 {
				ri, ok := rows[fields[i]]
				if !ok {
					return nil, fmt.Errorf("lp: mps line %d: unknown row %q", lineNo, fields[i])
				}
				val, err := strconv.ParseFloat(fields[i+1], 64)
				if err != nil {
					return nil, fmt.Errorf("lp: mps line %d: bad value %q", lineNo, fields[i+1])
				}
				ri.rhs = val
			}
		case "BOUNDS":
			// kind boundname column [value]
			if len(fields) != 3 && len(fields) != 4 {
				return nil, fmt.Errorf("lp: mps line %d: malformed BOUNDS record", lineNo)
			}
			kind := strings.ToUpper(fields[0])
			colName := fields[2]
			if _, ok := out.VarNames[colName]; !ok {
				return nil, fmt.Errorf("lp: mps line %d: bound on unknown column %q", lineNo, colName)
			}
			var val float64
			if len(fields) == 4 {
				v, err := strconv.ParseFloat(fields[3], 64)
				if err != nil {
					return nil, fmt.Errorf("lp: mps line %d: bad bound %q", lineNo, fields[3])
				}
				val = v
			}
			switch kind {
			case "UP":
				hiBound[colName] = val
			case "LO":
				loBound[colName] = val
			case "FX":
				loBound[colName] = val
				hiBound[colName] = val
			case "FR":
				freeVar[colName] = true
			case "MI":
				freeVar[colName] = true // lower unbounded; approximated below
			case "PL":
				// default upper bound: nothing to do
			default:
				return nil, fmt.Errorf("lp: mps line %d: bound type %q not supported", lineNo, kind)
			}
		case "", "NAME", "OBJSENSE":
			// stray continuation lines for sections with no payload
		default:
			return nil, fmt.Errorf("lp: mps line %d: data outside a known section", lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("lp: mps: %w", err)
	}
	if out.ObjName == "" {
		return nil, fmt.Errorf("lp: mps: no objective (N) row")
	}

	// Apply bounds. Free / MI variables get a large negative lower bound:
	// the simplex requires finite lower bounds, and the paper's scheduling
	// models never need truly free variables.
	const freeLow = -1e12
	for name, v := range out.VarNames {
		lo, hasLo := loBound[name]
		hi, hasHi := hiBound[name]
		switch {
		case freeVar[name]:
			if !hasLo {
				lo = freeLow
			}
			if !hasHi {
				hi = Inf
			}
		default:
			if !hasLo {
				lo = 0
			}
			if !hasHi {
				hi = Inf
			}
		}
		if err := out.Model.SetBounds(v, lo, hi); err != nil {
			return nil, fmt.Errorf("lp: mps: column %q: %w", name, err)
		}
	}

	// Materialize rows in declaration order.
	for _, name := range rowOrder {
		ri := rows[name]
		if len(ri.terms) == 0 {
			return nil, fmt.Errorf("lp: mps: row %q has no coefficients", name)
		}
		if err := out.Model.AddConstraint(ri.terms, ri.sense, ri.rhs); err != nil {
			return nil, fmt.Errorf("lp: mps: row %q: %w", name, err)
		}
		out.RowNames = append(out.RowNames, name)
	}
	terms := make([]Term, 0, len(objTerms))
	for v, c := range objTerms {
		terms = append(terms, Term{Var: v, Coef: c})
	}
	sort.Slice(terms, func(a, b int) bool { return terms[a].Var < terms[b].Var })
	if err := out.Model.SetObjective(terms); err != nil {
		return nil, fmt.Errorf("lp: mps: objective: %w", err)
	}
	return out, nil
}

// WriteMPS serializes the model as fixed-section MPS. Variable and row
// names must have been assigned (ReadMPS round-trips; models built in
// code need non-empty names for stable output — unnamed entities get
// positional names).
func (m *MPSModel) WriteMPS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	name := m.Name
	if name == "" {
		name = "FLOWTIME"
	}
	obj := m.ObjName
	if obj == "" {
		obj = "COST"
	}
	fmt.Fprintf(bw, "NAME %s\n", name)
	fmt.Fprintln(bw, "ROWS")
	fmt.Fprintf(bw, " N %s\n", obj)
	md := m.Model
	for i, rn := range m.RowNames {
		kind := map[Sense]string{LE: "L", GE: "G", EQ: "E"}[md.rows[i].sense]
		fmt.Fprintf(bw, " %s %s\n", kind, rn)
	}

	// Column-major emission. Every (variable, row) pair the model mentions
	// is written, zero coefficients included, and a variable no row
	// mentions gets an explicit objective entry: a reader declares
	// variables and checks rows from COLUMNS records alone.
	varName := make([]string, md.NumVars())
	for n, v := range m.VarNames {
		varName[v] = n
	}
	for j := range varName {
		if varName[j] == "" {
			varName[j] = fmt.Sprintf("X%06d", j)
		}
	}
	type entry struct {
		row  int
		coef float64
	}
	cols := make([][]entry, md.NumVars())
	for i, row := range md.rows {
		for _, t := range row.terms {
			c := cols[t.Var]
			if n := len(c); n > 0 && c[n-1].row == i {
				c[n-1].coef += t.Coef
				continue
			}
			cols[t.Var] = append(c, entry{row: i, coef: t.Coef})
		}
	}
	fmt.Fprintln(bw, "COLUMNS")
	for j, col := range cols {
		if c := md.obj[j]; c != 0 || len(col) == 0 {
			fmt.Fprintf(bw, " %s %s %g\n", varName[j], obj, c)
		}
		for _, e := range col {
			fmt.Fprintf(bw, " %s %s %g\n", varName[j], m.RowNames[e.row], e.coef)
		}
	}
	fmt.Fprintln(bw, "RHS")
	for i, row := range md.rows {
		if row.rhs != 0 {
			fmt.Fprintf(bw, " RHS %s %g\n", m.RowNames[i], row.rhs)
		}
	}
	fmt.Fprintln(bw, "BOUNDS")
	for j := 0; j < md.NumVars(); j++ {
		lo, hi := md.lo[j], md.hi[j]
		switch {
		case lo == hi:
			fmt.Fprintf(bw, " FX BND %s %g\n", varName[j], lo)
		default:
			if lo != 0 {
				fmt.Fprintf(bw, " LO BND %s %g\n", varName[j], lo)
			}
			if hi != Inf {
				fmt.Fprintf(bw, " UP BND %s %g\n", varName[j], hi)
			}
		}
	}
	fmt.Fprintln(bw, "ENDATA")
	return bw.Flush()
}
