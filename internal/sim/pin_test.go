package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
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

// pinnedDigests are the sha256 digests, cut to 16 hex digits, of each
// pinned run's outcomes as render writes them. A change to how sim.Run
// executes jobs that moves any of them moves a figure; one that moves none
// is a refactor.
var pinnedDigests = map[string]string{
	"scenario-1":          "719a0e68c8bbacd0",
	"scenario-1-chaos":    "cbc638cd1b645d78",
	"scenario-2":          "a5ecae2e8fda1428",
	"scenario-2-chaos":    "82d49c90711a1529",
	"scenario-3":          "e65b9887b1448bc6",
	"scenario-3-chaos":    "1b0f5e71b0588c69",
	"scenario-4":          "07025ea16b22dc5f",
	"scenario-4-chaos":    "f6d4f78d7976118f",
	"scenario-5":          "febcaed4ca045065",
	"scenario-5-chaos":    "2ffced537ffb2fc1",
	"scenario-6":          "64858a2ac79e017e",
	"scenario-6-chaos":    "3beff74e26875ec0",
	"scenario-7":          "59cffee5985ed88c",
	"scenario-7-chaos":    "13112769ee1aa201",
	"scenario-8":          "c20cacbf5c8f151d",
	"scenario-8-chaos":    "efb01333b7b9892e",
	"scenario-9":          "50160550240b25ec",
	"scenario-9-chaos":    "be9032489d4f26d9",
	"scenario-10":         "601ed4392797e2a9",
	"scenario-10-chaos":   "069bfb9c20557dcb",
	"scenario-11":         "68cce76ec258791c",
	"scenario-11-chaos":   "ba3d3eda47aca9de",
	"scenario-12":         "e5285f21ed138bc3",
	"scenario-12-chaos":   "f6eec2bb30c7d569",
	"scenario-13":         "8d2c800f108e312d",
	"scenario-13-chaos":   "cb5418bc5c489f42",
	"scenario-14":         "5b278d3462f244ab",
	"scenario-14-chaos":   "61b51fc2afade5a2",
	"scenario-15":         "f64dac784a1842ed",
	"scenario-15-chaos":   "fd8fff34bbb99d32",
	"scenario-16":         "1e0265efdada0cbf",
	"scenario-16-chaos":   "84777d15979e1a7e",
	"scenario-17":         "eaa47e1a05f92e56",
	"scenario-17-chaos":   "13c57b319a650918",
	"scenario-18":         "ef9c4d2b77dc0bd5",
	"scenario-18-chaos":   "0ee69cb304ce39a3",
	"scenario-19":         "23e730c9a1bd5d64",
	"scenario-19-chaos":   "4505bc450316878a",
	"scenario-20":         "d42f1cff06c4ea6d",
	"scenario-20-chaos":   "4e71aef864087b06",
	"scenario-21":         "e5a4aab41d017e19",
	"scenario-21-chaos":   "2af9307194269334",
	"scenario-22":         "d4bbafcab8a6e248",
	"scenario-22-chaos":   "cf77f50c6e6c1cf8",
	"scenario-23":         "0ce7bd99cbeb60a6",
	"scenario-23-chaos":   "2d05dc5d160cf595",
	"scenario-24":         "da8428dd866d2a77",
	"scenario-24-chaos":   "8cc20526f15b6cf2",
	"scenario-25":         "f7d586f28d363c9e",
	"scenario-25-chaos":   "9cc17f3eda5475a1",
	"scenario-26":         "639ff266a05447b4",
	"scenario-26-chaos":   "d45ef1bb30cce723",
	"scenario-27":         "8e709aaa42cb621e",
	"scenario-27-chaos":   "14df8fdf72454107",
	"scenario-28":         "cc16194b00e8d86d",
	"scenario-28-chaos":   "c52d48b1c2571be6",
	"scenario-29":         "66a096cf3b17eb5f",
	"scenario-29-chaos":   "b13afcf76cf52ef8",
	"scenario-30":         "4eb37949100703cb",
	"scenario-30-chaos":   "35bc442ee844e736",
	"scenario-31":         "97fc5a3c88df3ff2",
	"scenario-31-chaos":   "70db07834fd33382",
	"scenario-32":         "1f10e5b7696e0036",
	"scenario-32-chaos":   "c6adf35945fc9937",
	"scenario-33":         "8f7556b39aa5ae36",
	"scenario-33-chaos":   "689ccddaf8313bf0",
	"scenario-34":         "c44469b6fea344f7",
	"scenario-34-chaos":   "d0e109ab00359215",
	"scenario-35":         "ef2b159ee509b83e",
	"scenario-35-chaos":   "808ddcad8a3e1be9",
	"scenario-36":         "a2ca917ce3662b08",
	"scenario-36-chaos":   "312efdd2f2f4db90",
	"scenario-37":         "afd08c0029610e0b",
	"scenario-37-chaos":   "ae49616c555ed28e",
	"scenario-38":         "2904cd70da8dacf9",
	"scenario-38-chaos":   "cb4146232ebb58ce",
	"scenario-39":         "a42351d4c63acb6b",
	"scenario-39-chaos":   "3354ced6653d4a0b",
	"scenario-40":         "149ac3a8e1df314f",
	"scenario-40-chaos":   "ecd17ef2bea3be7f",
	"churn-EDF":           "0c3b2fa09b7feeaa",
	"churn-FlowTime":      "0c3b2fa09b7feeaa",
	"critical-path":       "0834618b3b383f41",
	"ext-e-dip":           "7ffd8b9f233108e0",
	"stragglers-EDF":      "fd11393c902ec0a1",
	"stragglers-FlowTime": "fd11393c902ec0a1",
}

// TestOutcomesArePinned holds sim.Run's outcomes — every job, workflow and
// ad-hoc verdict and completion, the slot, event, stall, best-effort and
// invariant counts, the load series and the machine counters — to the
// digests above, on the oracle's generated scenarios as estimated and
// under chaos, the churn and stragglers scenarios in machine mode under
// FlowTime and EDF, one critical-path decomposition and Ext. E's
// half-capacity dip.
func TestOutcomesArePinned(t *testing.T) {
	got := make(map[string]string)
	pin := func(name string, cfg sim.Config) {
		t.Helper()
		cfg.RecordLoad = true
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256([]byte(render(res)))
		got[name] = hex.EncodeToString(sum[:8])
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
	for _, name := range []string{"churn", "stragglers"} {
		for _, alg := range []string{"FlowTime", "EDF"} {
			sc, err := scenario.Generate(scenario.Spec{Name: name, Machines: 40, Days: 1, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			s, err := core.NewScheduler(alg, nil, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			pin(name+"-"+alg, sim.Config{
				SlotDur: sc.SlotDur, Horizon: sc.Horizon, Scheduler: s,
				Workflows: sc.Workflows, AdHoc: sc.AdHoc, Invariants: true,
				Machines: &sim.MachineMode{Initial: sc.Machines, Events: sc.Events},
			})
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

	for name, digest := range got {
		if want, ok := pinnedDigests[name]; !ok || digest != want {
			t.Errorf("%s: outcomes digest %s, pinned %q", name, digest, want)
		}
	}
	if len(got) != len(pinnedDigests) {
		t.Errorf("%d runs for %d pinned digests", len(got), len(pinnedDigests))
	}
}

// render writes a result's outcomes canonically, one line per entry.
func render(res *sim.Result) string {
	var b strings.Builder
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
		fmt.Fprintf(&b, "load %d %v %v %v\n", l.Slot, l.Deadline, l.AdHoc, l.Capacity)
	}
	if m := res.Machine; m != nil {
		fmt.Fprintf(&b, "machine %+v\n", *m)
	}
	return b.String()
}
