package sim_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowtime/internal/core"
	"flowtime/internal/experiments"
	"flowtime/internal/machine"
	"flowtime/internal/oracle"
	"flowtime/internal/resource"
	"flowtime/internal/scenario"
	"flowtime/internal/sched"
	"flowtime/internal/sim"
	"flowtime/internal/workload"
)

// TestOutcomesArePinned holds sim.Run's outcomes — every job, workflow and
// ad-hoc verdict and completion, the slot, event, stall, best-effort and
// invariant counts, the load series and the machine counters — to one
// golden per run, testdata/outcomes/<run>.golden, on the oracle's generated
// scenarios as estimated and under chaos, the churn and stragglers
// scenarios in machine mode under FlowTime and EDF, the churn scenario on a
// small cluster whose failed machines hold leases, one critical-path
// decomposition and Ext. E's half-capacity dip. A golden holds the run's
// outcomes line for line and its load series as a digest. A change to how
// sim.Run executes jobs that moves any of them moves a figure; one that
// moves none is a refactor. The goldens are written by hand from a run's
// render.
func TestOutcomesArePinned(t *testing.T) {
	runs := 0
	pin := func(name string, cfg sim.Config) *sim.Result {
		t.Helper()
		runs++
		cfg.RecordLoad = true
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		golden := filepath.Join("testdata", "outcomes", name+".golden")
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := render(res); got != string(want) {
			t.Errorf("%s: outcomes drifted from %s:\n%s", name, golden, diffOutcomes(string(want), got))
		}
		return res
	}
	for seed := int64(1); seed <= 40; seed++ {
		for _, chaos := range []bool{false, true} {
			sc, err := oracle.GenScenario(rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			name := fmt.Sprintf("scenario-%d", seed)
			if chaos {
				if err := workload.InjectChaos(1, sc.Workflows); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				name += "-chaos"
			}
			capacity := sc.Capacity
			pin(name, sim.Config{
				SlotDur: sc.SlotDur, Horizon: sc.Horizon,
				Capacity:  func(int64) resource.Vector { return capacity },
				Scheduler: core.New(core.DefaultConfig()), Workflows: sc.Workflows, AdHoc: sc.AdHoc,
				Invariants: true,
			})
		}
	}
	// The churn and stragglers scenarios on 40 machines, and churn on 4
	// machines of 4 cores, whose failed machines hold leases.
	for _, name := range []string{"churn-FlowTime", "churn-EDF", "stragglers-FlowTime", "stragglers-EDF", "churn-small"} {
		scName, alg, _ := strings.Cut(name, "-")
		spec := scenario.Spec{Name: scName, Machines: 40, Days: 1, Seed: 42}
		if alg == "small" {
			alg, spec.Machines, spec.MachineCores = "FlowTime", 4, 4
		}
		sc, err := scenario.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.NewScheduler(alg, nil, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res := pin(name, sim.Config{
			SlotDur: sc.SlotDur, Horizon: sc.Horizon, Scheduler: s,
			Workflows: sc.Workflows, AdHoc: sc.AdHoc, Invariants: true,
			Machines: &sim.MachineMode{Initial: sc.Machines, Events: sc.Events},
		})
		if spec.Machines == 4 && res.Machine.RequeuedQuanta == 0 {
			t.Errorf("%s: no failed machine held a lease, so no requeue is pinned", name)
		}
	}
	sc, err := oracle.GenScenario(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	capacity := sc.Capacity
	pin("critical-path", sim.Config{
		SlotDur: sc.SlotDur, Horizon: sc.Horizon,
		Capacity:  func(int64) resource.Vector { return capacity },
		Scheduler: sched.NewEDF(), Workflows: sc.Workflows, AdHoc: sc.AdHoc,
		ForceCriticalPath: true, Invariants: true,
	})
	// Ext. E: half the cluster lost over slots 120-240 of the Fig. 4 workload.
	profile, err := machine.NewProfile(
		[]machine.Spec{{ID: "cluster", Capacity: experiments.Fig4Cluster}},
		[]machine.Event{
			{Slot: 120, Kind: machine.SetScale, ScaleNum: 1, ScaleDen: 2},
			{Slot: 240, Kind: machine.SetScale, ScaleNum: 1, ScaleDen: 1},
		})
	if err != nil {
		t.Fatal(err)
	}
	wfs, adhoc, err := workload.Fig4Workload(workload.DefaultFig4Spec())
	if err != nil {
		t.Fatal(err)
	}
	pin("ext-e-dip", sim.Config{
		SlotDur: experiments.SlotDur, Horizon: 4000, Capacity: profile.CapAt,
		Scheduler: core.New(core.DefaultConfig()), Workflows: wfs, AdHoc: adhoc,
	})

	if goldens, _ := filepath.Glob(filepath.Join("testdata", "outcomes", "*.golden")); len(goldens) != runs {
		t.Errorf("%d runs for %d goldens", runs, len(goldens))
	}
}

// render writes a result's outcomes canonically, one line per entry, and
// its load series as the sha256 digest of its lines, cut to 16 hex digits.
func render(res *sim.Result) string {
	var b, load strings.Builder
	for _, o := range res.Jobs {
		fmt.Fprintf(&b, "job %s %s %d %d %d %t\n", o.WorkflowID, o.JobName, o.Release, o.Deadline, o.Completion, o.Completed)
	}
	for _, o := range res.Workflows {
		fmt.Fprintf(&b, "wf %s %d %d %t\n", o.ID, o.Deadline, o.Completion, o.Completed)
	}
	for _, o := range res.AdHoc {
		fmt.Fprintf(&b, "adhoc %s %d %d %t\n", o.ID, o.Submit, o.Completion, o.Completed)
	}
	fmt.Fprintf(&b, "slots %d events %d stalled %d best-effort %d invariant %d\n",
		res.Slots, res.Events, res.StalledSlots, res.BestEffortJobs, res.InvariantSlots)
	for _, l := range res.Load {
		fmt.Fprintf(&load, "load %d %v %v %v\n", l.Slot, l.Deadline, l.AdHoc, l.Capacity)
	}
	sum := sha256.Sum256([]byte(load.String()))
	fmt.Fprintf(&b, "load %x\n", sum[:8])
	if m := res.Machine; m != nil {
		fmt.Fprintf(&b, "machine %+v\n", *m)
	}
	return b.String()
}

// diffOutcomes lists the lines of two renders that differ, keyed by what
// each reports: a job by its workflow and name, a workflow or an ad-hoc job
// by its ID, the other lines by their kind.
func diffOutcomes(want, got string) string {
	key := func(line string) string {
		f := strings.Fields(line)
		switch f[0] {
		case "job":
			return strings.Join(f[:3], " ")
		case "wf", "adhoc":
			return strings.Join(f[:2], " ")
		}
		return f[0]
	}
	lines := func(s string) (keys []string, by map[string]string) {
		by = make(map[string]string)
		for _, line := range strings.Split(strings.TrimSuffix(s, "\n"), "\n") {
			if line == "" {
				continue
			}
			if k := key(line); by[k] == "" {
				keys = append(keys, k)
				by[k] = line
			}
		}
		return keys, by
	}
	wantKeys, wantBy := lines(want)
	gotKeys, gotBy := lines(got)
	var b strings.Builder
	for _, k := range wantKeys {
		if g := gotBy[k]; g != wantBy[k] {
			fmt.Fprintf(&b, "%s:\n\t- %s\n\t+ %s\n", k, wantBy[k], g)
		}
	}
	for _, k := range gotKeys {
		if wantBy[k] == "" {
			fmt.Fprintf(&b, "%s:\n\t- \n\t+ %s\n", k, gotBy[k])
		}
	}
	return b.String()
}
