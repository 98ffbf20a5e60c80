// Command ftverify is the differential verification sweep: it generates
// seeded scheduling instances and full-pipeline scenarios, holds the
// production flow planner's certificates to the exact checker in
// internal/oracle, and the planner and the decomposer to the independent
// oracles there — including the relations that keep ad-hoc work from costing a
// deadline and deadline work from idling (reservations yield in the
// planner; in the simulator every slot is work-conserving, and striking
// the ad-hoc jobs from a slot's decision changes nothing deadline work is
// granted ahead of them) — and reports pass/fail. Every case is derived from
// seed+index, so a failure's repro line re-runs exactly that case:
//
//	ftverify -n 500 -seed 1        # the CI sweep
//	ftverify -n 1 -seed 137 -v     # replay case 137 of that sweep
//
// On failure the offending instance is shrunk to a minimal reproducer
// and printed, then ftverify exits 1.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/deadline"
	"flowtime/internal/oracle"
	"flowtime/internal/resource"
	"flowtime/internal/sim"
)

func main() {
	log.SetFlags(0)
	var (
		n       = flag.Int64("n", 200, "number of verification cases")
		seed    = flag.Int64("seed", 1, "base seed; case i uses seed+i")
		verbose = flag.Bool("v", false, "log every case")
	)
	flag.Parse()

	counts := map[string]int{}
	start := time.Now()
	for i := int64(0); i < *n; i++ {
		caseSeed := *seed + i
		rng := rand.New(rand.NewSource(caseSeed))
		kind, err := runCase(rng, *verbose, counts)
		counts[kind]++
		if *verbose || err != nil {
			log.Printf("case seed=%d kind=%s: %v", caseSeed, kind, errString(err))
		}
		if err != nil {
			log.Printf("FAIL after %d/%d cases", i+1, *n)
			log.Printf("reproduce with: ftverify -n 1 -seed %d -v", caseSeed)
			os.Exit(1)
		}
	}
	log.Printf("PASS: %d cases in %v (%s)", *n, time.Since(start).Round(time.Millisecond), breakdown(counts))
}

func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

func breakdown(counts map[string]int) string {
	return fmt.Sprintf("%d small cross-checks, %d certified flow checks, %d large certificate checks, %d reservation-yield checks, %d pipeline scenarios (%d work-conservation slots, %d with an ad-hoc stream to strike out, played again under chaos)",
		counts["small"], counts["flow"], counts["large"], counts["reserve"], counts["scenario"], counts["conserving-slots"], counts["adhoc-removal"])
}

// runCase dispatches one seeded case. The kind is drawn from the case's
// own rng, so a single (seed, index) pair fully determines the case.
// counts is for relations a case runs only on some inputs.
func runCase(rng *rand.Rand, verbose bool, counts map[string]int) (string, error) {
	switch p := rng.Intn(10); {
	case p < 3:
		return "small", smallCase(rng)
	case p < 6:
		return "flow", flowCase(rng)
	case p < 7:
		return "large", largeCase(rng)
	case p < 8:
		return "reserve", reserveCase(rng)
	default:
		return "scenario", scenarioCase(rng, verbose, counts)
	}
}

// smallCase holds the flow planner's certified answer to brute force and
// min-cut on a tiny instance, then exercises the metamorphic relations on
// it.
func smallCase(rng *rand.Rand) error {
	return crossCheckSmall(oracle.GenInstance(rng), rng)
}

// flowCase is the check that licenses planning by flow: the planner's
// skylines, uncapped and level-capped, and its stage A routing pass the
// exact checker, an infeasible verdict included (oracle.CheckFlow), on a
// tiny instance two times in three — where the planner then also faces
// brute force, min-cut and the metamorphic relations — and on one far
// beyond enumeration reach otherwise.
func flowCase(rng *rand.Rand) error {
	small := rng.Intn(3) != 0
	in := oracle.GenLargeInstance(rng)
	if small {
		in = oracle.GenInstance(rng)
	}
	if err := oracle.CheckFlow(in); err != nil {
		return shrunk(in, err, func(c oracle.Instance) bool { return oracle.CheckFlow(c) != nil })
	}
	if !small {
		return nil
	}
	return crossCheckSmall(in, rng)
}

// reserveCase is the check that licenses planning a gate reservation as a
// one-slot job routed last: for an instance (tiny two times in three) and
// a seeded reservation vector, every deadline job's stage A shortfall is
// its reservation-free one, deadline load plus surviving reservation fits
// every slot's hard capacity, and the surviving total is the joint max
// flow minus the deadline jobs' own, each total certified by its min cut.
func reserveCase(rng *rand.Rand) error {
	in := oracle.GenLargeInstance(rng)
	if rng.Intn(3) != 0 {
		in = oracle.GenInstance(rng)
	}
	rsvSeed := rng.Int63()
	check := func(c oracle.Instance) error {
		return oracle.CheckReservationsYield(c, oracle.GenReservations(c, rsvSeed))
	}
	if err := check(in); err != nil {
		min := oracle.Shrink(in, func(c oracle.Instance) bool { return check(c) != nil })
		return fmt.Errorf("%w\noriginal instance: %+v\nminimal reproducer: %+v with reservations %v",
			err, in, min, oracle.GenReservations(min, rsvSeed))
	}
	return nil
}

// crossCheckSmall runs the planner through the brute-force and min-cut
// battery and the metamorphic relations on a tiny instance.
func crossCheckSmall(in oracle.Instance, rng *rand.Rand) error {
	if err := oracle.CrossCheck(in, oracle.Tol); err != nil {
		return shrunk(in, err, func(c oracle.Instance) bool { return oracle.CrossCheck(c, oracle.Tol) != nil })
	}
	if err := oracle.CheckScaleInvariance(in, 1+int64(rng.Intn(4)), oracle.Tol); err != nil {
		return fmt.Errorf("%w\ninstance: %+v", err, in)
	}
	if err := oracle.CheckPermutationInvariance(in, rng, oracle.Tol); err != nil {
		return fmt.Errorf("%w\ninstance: %+v", err, in)
	}
	if err := oracle.CheckSplitSlot(in, rng.Int63n(int64(len(in.Caps))), oracle.Tol); err != nil {
		return fmt.Errorf("%w\ninstance: %+v", err, in)
	}
	return nil
}

// largeCase holds the planner's certificate to the exact checker on an
// instance far beyond enumeration reach.
func largeCase(rng *rand.Rand) error {
	in := oracle.GenLargeInstance(rng)
	check := func(c oracle.Instance) error {
		sol, err := oracle.SolveFlow(c)
		if err != nil || !sol.Feasible {
			return err
		}
		return oracle.CheckSolution(c, 0, sol.Sky)
	}
	if err := check(in); err != nil {
		return shrunk(in, err, func(c oracle.Instance) bool { return check(c) != nil })
	}
	return nil
}

// scenarioCase runs a full pipeline scenario: the decomposition oracle
// on every workflow, then the simulator with the per-slot invariant
// checker armed and every Assign held to work conservation and the
// per-slot ad-hoc-removal relation (oracle.Conserving: what deadline work
// is granted ahead of ad-hoc work is the same with the ad-hoc jobs struck
// from the slot's decision — ad-hoc work only ever costs deadline work
// idle capacity), (for a third of scenarios) the submission-order
// permutation relation on the end-to-end outcomes, and (whenever there is
// an ad-hoc stream) the same run again under chaos, where deadline work
// claims beyond its plan beside the stream. A violation is shrunk to a
// minimal scenario before reporting.
func scenarioCase(rng *rand.Rand, verbose bool, counts map[string]int) error {
	sc, err := oracle.GenScenario(rng)
	if err != nil {
		return err
	}
	opts := deadline.Options{Slot: sc.SlotDur, ClusterCap: sc.Capacity}
	for wi, wf := range sc.Workflows {
		res, err := deadline.Decompose(wf, opts)
		if err != nil {
			continue // undecomposable; the sim admits it best-effort
		}
		if err := oracle.CheckDecomposition(wf, opts, res); err != nil {
			return fmt.Errorf("workflow %d (%s regime): %w", wi, sc.Regimes[wi], err)
		}
	}

	base, err := checkedRun(sc, nil, counts)
	if err != nil {
		return err
	}
	if verbose {
		log.Printf("  scenario: %d workflows, %d adhoc, %d slots, all invariant-checked and work-conserving",
			len(sc.Workflows), len(sc.AdHoc), base.Slots)
	}

	if rng.Intn(3) == 0 && len(sc.Workflows)+len(sc.AdHoc) > 1 {
		perm, _, err := runScenario(sc, rng, nil)
		if err != nil {
			return fmt.Errorf("permuted run: %w", err)
		}
		if len(base.Jobs) != len(perm.Jobs) {
			return fmt.Errorf("permutation changed job count %d -> %d", len(base.Jobs), len(perm.Jobs))
		}
		for j := range base.Jobs {
			if base.Jobs[j] != perm.Jobs[j] {
				return fmt.Errorf("permutation changed outcome of %s/%s: %+v -> %+v",
					base.Jobs[j].WorkflowID, base.Jobs[j].JobName, base.Jobs[j], perm.Jobs[j])
			}
		}
	}

	if len(sc.AdHoc) > 0 {
		// Runtimes up to 30 % off their estimates and a fifth of the jobs
		// straggling: jobs outlive their plan, and the overdue and backlog
		// passes — deadline work's claims beyond the plan — decide beside
		// the ad-hoc stream in most slots instead of a few. The fault seed
		// is fixed, so the case's rng draws stay where they were.
		counts["adhoc-removal"]++
		faults := &sim.FaultInjection{Seed: 1, RuntimeJitter: 0.3, StragglerFrac: 0.2, StragglerFactor: 3}
		if _, err := checkedRun(sc, faults, counts); err != nil {
			return fmt.Errorf("under chaos: %w", err)
		}
	}
	return nil
}

// checkedRun is runScenario in submission order, with every slot required
// to have passed both the invariant checker and oracle.Conserving; a
// failure is shrunk to a minimal scenario and folded into the error.
func checkedRun(sc *oracle.Scenario, faults *sim.FaultInjection, counts map[string]int) (*sim.Result, error) {
	run := func(c *oracle.Scenario) (*sim.Result, error) {
		res, conserving, err := runScenario(c, nil, faults)
		if err == nil && (res.InvariantSlots != res.Slots || conserving != res.Slots) {
			err = fmt.Errorf("invariant checker covered %d and the work-conservation check %d of %d slots",
				res.InvariantSlots, conserving, res.Slots)
		}
		return res, err
	}
	res, err := run(sc)
	if err != nil {
		min := oracle.ShrinkScenario(sc, func(c *oracle.Scenario) bool {
			_, err := run(c)
			return err != nil
		})
		return nil, fmt.Errorf("%w\nminimal reproducer: %d workflows (%v), %d ad-hoc, horizon %d",
			err, len(min.Workflows), min.Regimes, len(min.AdHoc), min.Horizon)
	}
	counts["conserving-slots"] += int(res.Slots)
	return res, nil
}

// runScenario executes the scenario with FlowTime, the invariant checker
// and oracle.Conserving's checks on every Assign (a violation fails the
// run at its slot), and also returns how many slots the latter passed; a
// non-nil rng permutes the submission order first, non-nil faults perturb
// the jobs' actual volumes.
func runScenario(sc *oracle.Scenario, rng *rand.Rand, faults *sim.FaultInjection) (*sim.Result, int64, error) {
	wfs := sc.Workflows
	adhoc := sc.AdHoc
	if rng != nil {
		wfs = append(wfs[:0:0], wfs...)
		adhoc = append(adhoc[:0:0], adhoc...)
		rng.Shuffle(len(wfs), func(a, b int) { wfs[a], wfs[b] = wfs[b], wfs[a] })
		rng.Shuffle(len(adhoc), func(a, b int) { adhoc[a], adhoc[b] = adhoc[b], adhoc[a] })
	}
	capacity := sc.Capacity
	ft := oracle.NewConserving(core.DefaultConfig())
	res, err := sim.Run(sim.Config{
		SlotDur:    sc.SlotDur,
		Horizon:    sc.Horizon,
		Capacity:   func(int64) resource.Vector { return capacity },
		Scheduler:  ft,
		Workflows:  wfs,
		AdHoc:      adhoc,
		Invariants: true,
		Faults:     faults,
	})
	return res, ft.Slots(), err
}

// shrunk minimizes a failing instance and folds it into the error.
func shrunk(in oracle.Instance, err error, fails func(oracle.Instance) bool) error {
	min := oracle.Shrink(in, fails)
	return fmt.Errorf("%w\noriginal instance: %+v\nminimal reproducer: %+v", err, in, min)
}
