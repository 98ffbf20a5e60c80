// Command ftlp solves a linear program in MPS format with the repository's
// simplex solver — the standalone face of internal/lp, the general LP
// solver the flow planner is checked against (the scheduler itself plans
// by max-flow, internal/flow, and no longer calls it).
//
// Usage:
//
//	ftlp [-duals] [-zeros] problem.mps
//
// Prints the optimal objective and the variable values (nonzero only,
// unless -zeros). With -duals the constraint duals are printed too.
// Exit codes: 0 optimal, 1 infeasible/unbounded/error, 2 usage.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"flowtime/internal/lp"
)

func main() {
	log.SetFlags(0)
	duals := flag.Bool("duals", false, "print constraint duals")
	zeros := flag.Bool("zeros", false, "print zero-valued variables too")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ftlp [-duals] [-zeros] problem.mps")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *duals, *zeros); err != nil {
		log.Println("ftlp:", err)
		os.Exit(1)
	}
}

func run(path string, duals, zeros bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	mm, err := lp.ReadMPS(f)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	fmt.Printf("problem %s: %d variables, %d constraints\n",
		mm.Name, mm.Model.NumVars(), mm.Model.NumConstraints())
	sol, err := mm.Model.Solve()
	switch {
	case errors.Is(err, lp.ErrInfeasible):
		return errors.New("infeasible")
	case errors.Is(err, lp.ErrUnbounded):
		return errors.New("unbounded")
	case err != nil:
		return err
	}
	fmt.Printf("optimal objective: %.10g\n", sol.Objective)

	names := make([]string, 0, len(mm.VarNames))
	for n := range mm.VarNames {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := sol.Value(mm.VarNames[n])
		if v != 0 || zeros {
			fmt.Printf("  %-12s = %.10g\n", n, v)
		}
	}
	if duals {
		fmt.Println("duals:")
		for i, rn := range mm.RowNames {
			fmt.Printf("  %-12s = %.10g\n", rn, sol.Dual(i))
		}
	}
	return nil
}
