// Command ftsim replays a workload through a scheduler on a simulated
// cluster and prints the paper's metrics. The workload comes from a trace
// file (see ftgen) or from a named synthetic scenario; with -machines the
// cluster is simulated machine-granularly and every grant is placed on
// concrete nodes.
//
// Usage:
//
//	ftsim -trace trace.json [-sched FlowTime] [-cores 100] [-mem-mb 204800]
//	      [-slot 10s] [-horizon 8000] [-slack 60s] [-cp-decompose] [-v]
//	      [-dip from:until:percent]... [-invariants] [-machines N]
//	ftsim -scenario diurnal [-machines 10000] [-days 3] [-seed 1] ...
//
// -dip injects a capacity outage: e.g. -dip 120:240:50 halves the cluster
// between slots 120 and 240. The flag repeats for multiple windows, which
// must not overlap. A dip is a pair of cluster scale events: on the
// machine set in machine mode, on the one machine the aggregate cluster is
// otherwise.
//
// -scenario accepts diurnal, flash, stragglers, churn, or energy; the
// scenario engine generates the workload, the machine set, and the
// machine event stream from -seed, so runs are exactly reproducible.
//
// -sched accepts FlowTime, CORA, EDF, Fair, FIFO, Morpheus, or "all".
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"flowtime/internal/core"
	"flowtime/internal/experiments"
	"flowtime/internal/machine"
	"flowtime/internal/metrics"
	"flowtime/internal/resource"
	"flowtime/internal/scenario"
	"flowtime/internal/sched"
	"flowtime/internal/sim"
	"flowtime/internal/trace"
	"flowtime/internal/workflow"
	"flowtime/internal/workload"
)

// dipWindow is one -dip occurrence: capacity drops to pct% of nominal
// during [from, until).
type dipWindow struct {
	from, until, pct int64
}

// dipFlags collects repeated -dip occurrences.
type dipFlags []dipWindow

// String implements flag.Value.
func (d *dipFlags) String() string {
	parts := make([]string, 0, len(*d))
	for _, w := range *d {
		parts = append(parts, fmt.Sprintf("%d:%d:%d", w.from, w.until, w.pct))
	}
	return strings.Join(parts, ",")
}

// Set implements flag.Value with strict validation: exactly three
// colon-separated integers, a non-empty window that overlaps no earlier
// one, and a percentage in [0, 100].
func (d *dipFlags) Set(s string) error {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return fmt.Errorf("bad -dip %q: want from:until:percent", s)
	}
	var vals [3]int64
	names := [3]string{"from", "until", "percent"}
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return fmt.Errorf("bad -dip %q: %s %q is not an integer", s, names[i], p)
		}
		vals[i] = v
	}
	w := dipWindow{from: vals[0], until: vals[1], pct: vals[2]}
	if w.from < 0 {
		return fmt.Errorf("bad -dip %q: from %d is negative", s, w.from)
	}
	if w.until <= w.from {
		return fmt.Errorf("bad -dip %q: window [%d, %d) is empty (want from < until)", s, w.from, w.until)
	}
	if w.pct < 0 || w.pct > 100 {
		return fmt.Errorf("bad -dip %q: percent %d outside [0, 100]", s, w.pct)
	}
	for _, e := range *d {
		if w.from < e.until && e.from < w.until {
			return fmt.Errorf("bad -dip %q: window [%d, %d) overlaps -dip window [%d, %d)", s, w.from, w.until, e.from, e.until)
		}
	}
	*d = append(*d, w)
	return nil
}

// events compiles the windows into cluster scale events, slot-sorted: each
// window scales capacity down at its start and back to nominal at its end.
// Windows go in start order, so where one ends on the slot the next begins
// the later window's scale is the one that holds.
func (d dipFlags) events() []machine.Event {
	windows := append([]dipWindow(nil), d...)
	sort.Slice(windows, func(a, b int) bool { return windows[a].from < windows[b].from })
	var events []machine.Event
	for _, w := range windows {
		events = append(events,
			machine.Event{Slot: w.from, Kind: machine.SetScale, ScaleNum: w.pct, ScaleDen: 100},
			machine.Event{Slot: w.until, Kind: machine.SetScale, ScaleNum: 100, ScaleDen: 100},
		)
	}
	return events
}

// aggregateProfile is the capacity of aggregate mode: one machine holding
// the whole cluster, scaled by the dips.
func aggregateProfile(cores, memMB int64, dips []machine.Event) (*machine.Profile, error) {
	return machine.NewProfile([]machine.Spec{{ID: "cluster", Capacity: resource.New(cores, memMB)}}, dips)
}

type options struct {
	tracePath    string
	scenarioName string
	schedName    string
	machines     int
	days         int
	seed         int64
	cores, memMB int64
	machineCores int64
	machineMemMB int64
	slot         time.Duration
	slotSet      bool
	horizon      int64
	horizonSet   bool
	slack        time.Duration
	cpDecomp     bool
	dips         dipFlags
	invariants   bool
	verbose      bool
}

func main() {
	log.SetFlags(0)
	var o options
	flag.StringVar(&o.tracePath, "trace", "", "trace file (this or -scenario is required)")
	flag.StringVar(&o.scenarioName, "scenario", "",
		fmt.Sprintf("synthetic scenario: %s", strings.Join(scenario.Names(), ", ")))
	flag.StringVar(&o.schedName, "sched", "FlowTime", "scheduler: FlowTime, CORA, EDF, Fair, FIFO, Morpheus, all")
	flag.IntVar(&o.machines, "machines", 0, "simulate this many machines individually (0 = aggregate cluster; scenarios default to their own size)")
	flag.IntVar(&o.days, "days", 0, "scenario length in days (scenario mode; default 3)")
	flag.Int64Var(&o.seed, "seed", 1, "scenario generator seed")
	flag.Int64Var(&o.cores, "cores", 100, "cluster vcores (aggregate mode)")
	flag.Int64Var(&o.memMB, "mem-mb", 200*1024, "cluster memory in MiB (aggregate mode)")
	flag.Int64Var(&o.machineCores, "machine-cores", 16, "per-machine vcores (machine mode)")
	flag.Int64Var(&o.machineMemMB, "machine-mem-mb", 32*1024, "per-machine memory in MiB (machine mode)")
	flag.DurationVar(&o.slot, "slot", 10*time.Second, "slot duration (scenarios default to 60s)")
	flag.Int64Var(&o.horizon, "horizon", 8000, "horizon in slots (scenarios default to their full span)")
	flag.DurationVar(&o.slack, "slack", 60*time.Second, "FlowTime deadline slack")
	flag.BoolVar(&o.cpDecomp, "cp-decompose", false, "use critical-path decomposition")
	flag.Var(&o.dips, "dip", "capacity outage as from:until:percent (slots, % remaining); repeatable")
	flag.BoolVar(&o.invariants, "invariants", false, "verify per-slot safety invariants (fail loudly on violation)")
	flag.BoolVar(&o.verbose, "v", false, "print per-job outcomes")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "slot":
			o.slotSet = true
		case "horizon":
			o.horizonSet = true
		}
	})
	if (o.tracePath == "") == (o.scenarioName == "") {
		log.Println("ftsim: exactly one of -trace or -scenario is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o); err != nil {
		log.Println("ftsim:", err)
		os.Exit(1)
	}
}

// workloadSource yields a fresh copy of the workload for each scheduler
// run (schedulers must not share workflow objects across runs).
type workloadSource func() ([]*workflow.Workflow, []workflow.AdHoc, error)

func run(o options) error {
	var (
		load     workloadSource
		machines []machine.Spec
		events   []machine.Event
	)
	if o.scenarioName != "" {
		spec := scenario.Spec{
			Name:         o.scenarioName,
			Seed:         o.seed,
			Machines:     o.machines,
			Days:         o.days,
			MachineCores: o.machineCores,
			MachineMemMB: o.machineMemMB,
		}
		if o.slotSet {
			spec.SlotDur = o.slot
		}
		sc, err := scenario.Generate(spec)
		if err != nil {
			return err
		}
		machines, events = sc.Machines, sc.Events
		o.slot = sc.SlotDur
		if !o.horizonSet {
			o.horizon = sc.Horizon
		}
		log.Printf("scenario %s: seed %d, %d machines, %d workflows, %d ad-hoc jobs, %d machine events, %d slots of %v",
			sc.Spec.Name, sc.Spec.Seed, len(sc.Machines), len(sc.Workflows), len(sc.AdHoc), len(sc.Events), o.horizon, o.slot)
		load = func() ([]*workflow.Workflow, []workflow.AdHoc, error) {
			// Regenerate per scheduler: runs must not share mutable state,
			// and the generator is deterministic from the seed.
			fresh, err := scenario.Generate(spec)
			if err != nil {
				return nil, nil, err
			}
			return fresh.Workflows, fresh.AdHoc, nil
		}
	} else {
		tr, err := loadTrace(o.tracePath)
		if err != nil {
			return err
		}
		load = tr.ToWorkload
		if o.machines > 0 {
			machines = machine.Homogeneous("m", o.machines,
				resource.New(o.machineCores, o.machineMemMB))
		}
	}

	machineMode := len(machines) > 0

	// The capacity dips are scale events in both modes: merged into the
	// machine set's own events, or applied to the aggregate cluster.
	dips := o.dips.events()
	var profile *machine.Profile
	if machineMode {
		events = append(events, dips...)
		machine.SortEvents(events)
	} else {
		var err error
		if profile, err = aggregateProfile(o.cores, o.memMB, dips); err != nil {
			return err
		}
	}

	names := []string{o.schedName}
	if o.schedName == "all" {
		names = experiments.AllAlgorithms()
	}

	rows := [][]string{{
		"scheduler", "jobs missed", "wf missed", "lateness max", "avg ad-hoc turnaround",
	}}
	machRows := [][]string{{
		"scheduler", "live min/peak", "events", "placed units", "frag fails", "unplaced", "peak skyline",
	}}
	for _, name := range names {
		wfs, adhoc, err := load()
		if err != nil {
			return err
		}
		var history sched.History
		if name == "Morpheus" {
			history, err = workload.SynthesizeHistory(rand.New(rand.NewSource(1)), wfs, 10, 0.1)
			if err != nil {
				return err
			}
		}
		cfg := core.DefaultConfig()
		cfg.Slack = o.slack
		s, err := core.NewScheduler(name, history, cfg)
		if err != nil {
			return err
		}
		simCfg := sim.Config{
			SlotDur:           o.slot,
			Horizon:           o.horizon,
			Scheduler:         s,
			Workflows:         wfs,
			AdHoc:             adhoc,
			ForceCriticalPath: o.cpDecomp,
			Invariants:        o.invariants,
			RecordLoad:        machineMode,
		}
		if machineMode {
			simCfg.Machines = &sim.MachineMode{Initial: machines, Events: events}
		} else {
			simCfg.Capacity = profile.CapAt
		}
		res, err := sim.Run(simCfg)
		if err != nil {
			return err
		}
		sum := metrics.Summarize(name, res)
		late := metrics.Describe(sum.JobLateness)
		rows = append(rows, []string{
			sum.Algorithm,
			fmt.Sprintf("%d/%d", sum.JobsMissed, sum.DeadlineJobs),
			fmt.Sprintf("%d/%d", sum.WorkflowsMissed, sum.Workflows),
			metrics.Seconds(late.Max),
			metrics.Seconds(sum.AvgTurnaround),
		})
		if res.Machine != nil {
			m := res.Machine
			machRows = append(machRows, []string{
				name,
				fmt.Sprintf("%d/%d", m.MinLive, m.PeakLive),
				fmt.Sprintf("%d", m.MachineEvents),
				fmt.Sprintf("%d", m.Stats.PlacedUnits),
				fmt.Sprintf("%d", m.Stats.FragmentationFailures),
				m.UnplacedVolume.String(),
				peakSkyline(res.Load),
			})
		}
		if o.verbose {
			for _, j := range res.Jobs {
				status := "met"
				if j.Missed() {
					status = "MISSED"
				}
				fmt.Printf("  %s/%s: deadline %v, completed %v (%s)\n",
					j.WorkflowID, j.JobName, j.Deadline, j.Completion, status)
			}
		}
	}
	fmt.Print(metrics.Table(rows))
	if machineMode {
		fmt.Print(metrics.Table(machRows))
	}
	return nil
}

// peakSkyline reports the run's peak cluster usage as a percentage of the
// capacity in the same slot — the top of the skyline the planners flatten.
func peakSkyline(loadSamples []sim.LoadSample) string {
	peak := 0.0
	for _, s := range loadSamples {
		if share := s.Deadline.Add(s.AdHoc).DominantShare(s.Capacity); share > peak {
			peak = share
		}
	}
	return fmt.Sprintf("%.0f%%", peak*100)
}

// loadTrace reads a native trace file (see ftgen).
func loadTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil {
			log.Println("ftsim: close:", cerr)
		}
	}()
	return trace.Read(f)
}
