package lp

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// afiro-like toy problem in MPS form.
const sampleMPS = `* test problem
NAME TESTPROB
ROWS
 N COST
 L LIM1
 G LIM2
 E MYEQN
COLUMNS
 X1 COST 1 LIM1 1
 X1 LIM2 1
 X2 COST 2 LIM1 1
 X2 MYEQN -1
 X3 COST -1 MYEQN 1
RHS
 RHS LIM1 4 LIM2 1
 RHS MYEQN 7
BOUNDS
 UP BND X1 4
 LO BND X2 -1
ENDATA
`

func TestReadMPSSolvesKnownProblem(t *testing.T) {
	mm, err := ReadMPS(strings.NewReader(sampleMPS))
	if err != nil {
		t.Fatalf("ReadMPS: %v", err)
	}
	if mm.Name != "TESTPROB" || mm.ObjName != "COST" {
		t.Errorf("Name/Obj = %q/%q", mm.Name, mm.ObjName)
	}
	if len(mm.RowNames) != 3 || mm.Model.NumVars() != 3 {
		t.Fatalf("rows %v vars %d", mm.RowNames, mm.Model.NumVars())
	}
	sol, err := mm.Model.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// min x1 + 2 x2 - x3
	// s.t. x1 + x2 <= 4; x1 >= 1; -x2 + x3 = 7; x1 in [0,4]; x2 >= -1.
	// Optimal: x1 = 1, x2 = -1, x3 = 6 -> objective 1 - 2 - 6 = -7.
	if !approx(sol.Objective, -7, 1e-6) {
		t.Errorf("objective = %g, want -7", sol.Objective)
	}
	if got := sol.Value(mm.VarNames["X2"]); !approx(got, -1, 1e-6) {
		t.Errorf("X2 = %g, want -1 (negative lower bound honoured)", got)
	}
	verifyOptimal(t, mm.Model, sol)
}

func TestMPSRoundTrip(t *testing.T) {
	mm, err := ReadMPS(strings.NewReader(sampleMPS))
	if err != nil {
		t.Fatalf("ReadMPS: %v", err)
	}
	var buf bytes.Buffer
	if err := mm.WriteMPS(&buf); err != nil {
		t.Fatalf("WriteMPS: %v", err)
	}
	back, err := ReadMPS(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadMPS(round trip): %v\n%s", err, buf.String())
	}
	s1, err := mm.Model.Solve()
	if err != nil {
		t.Fatalf("Solve original: %v", err)
	}
	s2, err := back.Model.Solve()
	if err != nil {
		t.Fatalf("Solve round-tripped: %v", err)
	}
	if !approx(s1.Objective, s2.Objective, 1e-9) {
		t.Errorf("objective changed across round trip: %g vs %g", s1.Objective, s2.Objective)
	}
}

// malformedMPS are documents ReadMPS must refuse.
var malformedMPS = []struct {
	name string
	body string
}{
	{"no objective", "ROWS\n L R1\nCOLUMNS\n X R1 1\nRHS\nENDATA\n"},
	{"ranges", "RANGES\n"},
	{"unknown section", "FOO\n"},
	{"unknown row type", "ROWS\n Z R1\n"},
	{"duplicate row", "ROWS\n N C\n L R1\n L R1\n"},
	{"bad value", "ROWS\n N C\n L R1\nCOLUMNS\n X R1 nope\n"},
	{"unknown row in columns", "ROWS\n N C\nCOLUMNS\n X R9 1\n"},
	{"integer marker", "ROWS\n N C\nCOLUMNS\n M1 'MARKER' 'INTORG'\n"},
	{"bound on unknown column", "ROWS\n N C\n L R1\nCOLUMNS\n X R1 1\nBOUNDS\n UP BND Y 3\n"},
	{"bad bound type", "ROWS\n N C\n L R1\nCOLUMNS\n X R1 1\nBOUNDS\n ZZ BND X 3\n"},
	{"row without coefficients", "ROWS\n N C\n L R1\nCOLUMNS\n X C 1\nENDATA\n"},
	// Found by (or while writing) FuzzReadMPS: values strconv accepts but
	// no model can hold, and a constraint row sharing the objective's name.
	{"NaN lower bound", "ROWS\n N C\n L R1\nCOLUMNS\n X R1 1\nBOUNDS\n LO BND X nan\n"},
	{"infinite lower bound", "ROWS\n N C\n L R1\nCOLUMNS\n X R1 1\nBOUNDS\n LO BND X inf\n"},
	{"NaN upper bound", "ROWS\n N C\n L R1\nCOLUMNS\n X R1 1\nBOUNDS\n UP BND X nan\n"},
	{"NaN objective coefficient", "ROWS\n N C\n L R1\nCOLUMNS\n X R1 1 C nan\n"},
	{"infinite objective coefficient", "ROWS\n N C\n L R1\nCOLUMNS\n X R1 1 C inf\n"},
	{"row named as the objective", "ROWS\n L C\nCOLUMNS\n X C 1\nROWS\n N C\nCOLUMNS\n Y C 1\n"},
	{"objective named as a row", "ROWS\n N C\n L C\nCOLUMNS\n X C 1\n"},
}

func TestReadMPSErrors(t *testing.T) {
	for _, tt := range malformedMPS {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadMPS(strings.NewReader(tt.body)); err == nil {
				t.Error("ReadMPS accepted malformed input")
			}
		})
	}
}

func TestReadMPSFreeVariable(t *testing.T) {
	mm, err := ReadMPS(strings.NewReader(freeMPS))
	if err != nil {
		t.Fatalf("ReadMPS: %v", err)
	}
	sol, err := mm.Model.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if got := sol.Value(mm.VarNames["X"]); math.Abs(got+5) > 1e-6 {
		t.Errorf("X = %g, want -5 (free variable below zero)", got)
	}
}

func TestSetBounds(t *testing.T) {
	m := NewModel()
	v := mustVar(t, m, "v", 0, 10)
	if err := m.SetBounds(v, -3, 3); err != nil {
		t.Fatalf("SetBounds: %v", err)
	}
	if err := m.SetBounds(v, 5, 1); err == nil {
		t.Error("inverted bounds accepted")
	}
	if err := m.SetBounds(Var(99), 0, 1); err == nil {
		t.Error("unknown var accepted")
	}
}

// freeMPS is a free (FR) variable pinned below zero by an equality row.
const freeMPS = `NAME FREE
ROWS
 N OBJ
 E EQ1
COLUMNS
 X OBJ 1 EQ1 1
RHS
 RHS EQ1 -5
BOUNDS
 FR BND X
ENDATA
`

// roundTripMPS are well-formed documents WriteMPS → ReadMPS once lost
// something from (found by FuzzReadMPS): coefficients that are or sum to
// zero, a variable only the objective mentions at zero, and a row whose
// name is the integer-marker keyword.
var roundTripMPS = []string{
	"ROWS\n N C\n L R1\nCOLUMNS\n X R1 0\n",
	"ROWS\n N C\n L R1\nCOLUMNS\n X R1 1 R1 -1\n",
	"ROWS\n N C\n L R1\nCOLUMNS\n X R1 1\n Y C 0\nBOUNDS\n UP BND Y 3\n",
	"ROWS\n N C\n L 'MARKER'\nCOLUMNS\n X C 1 'MARKER' 1\n",
}

// FuzzReadMPS covers the one place the package reads outside input: no
// document panics the reader, and one it accepts survives WriteMPS →
// ReadMPS with the same variables, rows and bounds.
func FuzzReadMPS(f *testing.F) {
	f.Add(sampleMPS)
	f.Add(freeMPS)
	for _, doc := range roundTripMPS {
		f.Add(doc)
	}
	for _, tt := range malformedMPS {
		f.Add(tt.body)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		mm, err := ReadMPS(strings.NewReader(doc))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := mm.WriteMPS(&buf); err != nil {
			t.Fatalf("WriteMPS: %v", err)
		}
		back, err := ReadMPS(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadMPS rejects what WriteMPS wrote: %v\n%s", err, buf.String())
		}
		a, b := mm.Model, back.Model
		if a.NumVars() != b.NumVars() || a.NumConstraints() != b.NumConstraints() {
			t.Fatalf("round trip: %d vars x %d rows became %d x %d\n%s",
				a.NumVars(), a.NumConstraints(), b.NumVars(), b.NumConstraints(), buf.String())
		}
		for name, v := range mm.VarNames {
			if err := checkBounds(name, a.lo[v], a.hi[v]); err != nil {
				t.Fatalf("accepted %v", err)
			}
			if c := a.obj[v]; math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("accepted objective coefficient %v on %q", c, name)
			}
			w, ok := back.VarNames[name]
			if !ok {
				t.Fatalf("round trip lost variable %q\n%s", name, buf.String())
			}
			if a.lo[v] != b.lo[w] || a.hi[v] != b.hi[w] {
				t.Fatalf("round trip: %q bounds [%g, %g] became [%g, %g]\n%s",
					name, a.lo[v], a.hi[v], b.lo[w], b.hi[w], buf.String())
			}
		}
	})
}
