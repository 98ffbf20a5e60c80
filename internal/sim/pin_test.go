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
	"scenario-1":          "e65143704e5dc088",
	"scenario-1-chaos":    "b54642896b2cc29e",
	"scenario-2":          "8b7e839931977dd3",
	"scenario-2-chaos":    "bd9f61dd74d58b0e",
	"scenario-3":          "7ea5adf356b670c2",
	"scenario-3-chaos":    "097d6eba56a04b53",
	"scenario-4":          "b14080abb0e6b249",
	"scenario-4-chaos":    "30ed3dc1be3e3857",
	"scenario-5":          "13ca9d6c8d6fbaaa",
	"scenario-5-chaos":    "19526efd73b5e093",
	"scenario-6":          "3e46db73c15d570d",
	"scenario-6-chaos":    "bac3f1df77e6d36d",
	"scenario-7":          "bc14222e3881bf1e",
	"scenario-7-chaos":    "119800d1d97904b0",
	"scenario-8":          "c4c4f23915ee6575",
	"scenario-8-chaos":    "314f2d7c9b90704f",
	"scenario-9":          "7e8a3b0ccd3b9645",
	"scenario-9-chaos":    "848a4d451b973df0",
	"scenario-10":         "f246f51d11821c8f",
	"scenario-10-chaos":   "126a38f753b50406",
	"scenario-11":         "5e745f448d53ea31",
	"scenario-11-chaos":   "062a66be6c999035",
	"scenario-12":         "73b52cc7637248da",
	"scenario-12-chaos":   "3621ea7bd543fbba",
	"scenario-13":         "2424c68cf8acc773",
	"scenario-13-chaos":   "751906cbecfb9014",
	"scenario-14":         "e9b9c95eacb85148",
	"scenario-14-chaos":   "003645ff3f720953",
	"scenario-15":         "2d86137ab294b598",
	"scenario-15-chaos":   "d67ad949e44cc502",
	"scenario-16":         "3c065d76710aba56",
	"scenario-16-chaos":   "acdb2067c7083c1e",
	"scenario-17":         "167a8884c1664712",
	"scenario-17-chaos":   "ed892b03255bf4e9",
	"scenario-18":         "9ec35ddc1270dec0",
	"scenario-18-chaos":   "0c624dfa637146f5",
	"scenario-19":         "9beac1513bca17a6",
	"scenario-19-chaos":   "e427c9d92fe0439f",
	"scenario-20":         "db7a7b22b4d5e84a",
	"scenario-20-chaos":   "f3079ffda6903ed3",
	"scenario-21":         "bb79a60a13bc041b",
	"scenario-21-chaos":   "92ec6412f49dce9a",
	"scenario-22":         "8190583ca5a2b2d1",
	"scenario-22-chaos":   "1ad0296fd20cb7fc",
	"scenario-23":         "a909ce641af319e5",
	"scenario-23-chaos":   "fcb4ae02e582492d",
	"scenario-24":         "e14fbdff6c569c0b",
	"scenario-24-chaos":   "d6f41a34651fb5ff",
	"scenario-25":         "77beee655dddc88d",
	"scenario-25-chaos":   "9b97d02ee5e912a1",
	"scenario-26":         "ef9964a7a373f5f5",
	"scenario-26-chaos":   "c9ce2cae2c2b412b",
	"scenario-27":         "ea10fb90c9007d45",
	"scenario-27-chaos":   "cdb45191eea077c9",
	"scenario-28":         "5cdd768b18d441f3",
	"scenario-28-chaos":   "5e9fc96016536724",
	"scenario-29":         "a908a6265def411b",
	"scenario-29-chaos":   "d19616749b679937",
	"scenario-30":         "a7fdd24bc9af21d2",
	"scenario-30-chaos":   "915996446d524d60",
	"scenario-31":         "ac58199ad36d3654",
	"scenario-31-chaos":   "87087fdddb1e9f1e",
	"scenario-32":         "ed9d0e8c228c425b",
	"scenario-32-chaos":   "403bdc5280adbfff",
	"scenario-33":         "759380fbcddd63b8",
	"scenario-33-chaos":   "23b2c22d3152401f",
	"scenario-34":         "6c8d21e49924fbe4",
	"scenario-34-chaos":   "b62efcdc80e787f8",
	"scenario-35":         "9d0de570bd9fa97a",
	"scenario-35-chaos":   "b5d14c57563c1d35",
	"scenario-36":         "5105acf0ed778bf3",
	"scenario-36-chaos":   "9f430e11a2f81cc3",
	"scenario-37":         "9255d125ddbe717c",
	"scenario-37-chaos":   "1d46b73e21f4f8b5",
	"scenario-38":         "ac7df31ede1439f1",
	"scenario-38-chaos":   "ca260bde4b04a827",
	"scenario-39":         "a332b4bba8fced40",
	"scenario-39-chaos":   "893b5011bf0e2b64",
	"scenario-40":         "0afe9192a101f72b",
	"scenario-40-chaos":   "7f5a3dc3c2a5c214",
	"churn-EDF":           "b0926dab812d1d5c",
	"churn-FlowTime":      "54f7a25fce2742c7",
	"churn-small":         "00a8eb131834ecc9",
	"critical-path":       "0a3a20e52c689680",
	"ext-e-dip":           "e3179fbc6e10a07d",
	"stragglers-EDF":      "3b9d88e8f7c5f32d",
	"stragglers-FlowTime": "f8531a5fbddccb17",
}

// TestOutcomesArePinned holds sim.Run's outcomes — every job, workflow and
// ad-hoc verdict and completion, the slot, event, stall, best-effort and
// invariant counts, the load series and the machine counters — to the
// digests above, on the oracle's generated scenarios as estimated and
// under chaos, the churn and stragglers scenarios in machine mode under
// FlowTime and EDF, the churn scenario on a small cluster whose failed
// machines hold leases, one critical-path decomposition and Ext. E's
// half-capacity dip.
func TestOutcomesArePinned(t *testing.T) {
	got := make(map[string]string)
	pin := func(name string, cfg sim.Config) *sim.Result {
		t.Helper()
		cfg.RecordLoad = true
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256([]byte(render(res)))
		got[name] = hex.EncodeToString(sum[:8])
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
