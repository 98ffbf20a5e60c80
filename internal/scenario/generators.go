// The five synthetic generators. All of them share the diurnal workload
// base (arrival rates follow a day/night sine, peak mid-afternoon) and
// then layer their own stress on top: flash crowds add arrival spikes,
// stragglers inflate actual-vs-estimated durations, churn cycles machines
// out and back, energy scales capacity with an electricity-price curve.
package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"flowtime/internal/machine"
	"flowtime/internal/resource"
	"flowtime/internal/workflow"
	"flowtime/internal/workload"
)

const day = 24 * time.Hour

// diurnalRate is the relative arrival rate at time-of-day tod: 1+amp at
// the 14:00 peak, 1-amp at the 02:00 trough.
func diurnalRate(tod, amp float64) float64 {
	return 1 + amp*math.Cos(2*math.Pi*(tod-14*3600)/86400)
}

// diurnalTimes samples n arrival times over the scenario span with the
// diurnal rate profile, by rejection against the peak rate, and returns
// them sorted.
func diurnalTimes(rng *rand.Rand, n, days int, amp float64) []time.Duration {
	span := float64(days) * 86400
	out := make([]time.Duration, 0, n)
	for len(out) < n {
		t := rng.Float64() * span
		if rng.Float64()*(1+amp) <= diurnalRate(math.Mod(t, 86400), amp) {
			out = append(out, (time.Duration(t) * time.Second).Round(time.Second))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// scaledTemplates widens the PUMA job classes so the workload is sized to
// the cluster: task counts scale with the machine count (per-task demand
// stays container-sized, as in the source traces).
func scaledTemplates(scale int) []workload.JobTemplate {
	tpls := workload.PUMATemplates()
	for i := range tpls {
		tpls[i].MinTasks *= scale
		tpls[i].MaxTasks *= scale
	}
	return tpls
}

// genBase fills the scenario with the shared diurnal workload: deadline
// workflows and an ad-hoc stream, both with diurnal arrival times.
func genBase(rng *rand.Rand, spec Spec, sc *Scenario) error {
	shapes := []workload.Shape{
		workload.ShapeFanOut, workload.ShapeDiamond, workload.ShapeMontage,
		workload.ShapeEpigenomics, workload.ShapeCyberShake, workload.ShapeSipht,
		workload.ShapeRandom,
	}
	tpls := scaledTemplates(spec.scale())

	nWf := spec.workflowsPerDay() * spec.Days
	wfTimes := diurnalTimes(rng, nWf, spec.Days, 0.8)
	for i, submit := range wfTimes {
		w, err := workload.GenerateWorkflow(rng, workload.WorkflowSpec{
			ID:             fmt.Sprintf("wf-%04d", i),
			Shape:          shapes[i%len(shapes)],
			Jobs:           8 + rng.Intn(9),
			Submit:         submit,
			DeadlineFactor: 4 + rng.Float64()*8, // loose, per the paper's §II-B trace observation
			Templates:      tpls,
		})
		if err != nil {
			return err
		}
		sc.Workflows = append(sc.Workflows, w)
	}

	nAh := spec.adhocPerDay() * spec.Days
	ahTimes := diurnalTimes(rng, nAh, spec.Days, 0.8)
	for i, submit := range ahTimes {
		sc.AdHoc = append(sc.AdHoc, adhocJob(rng, fmt.Sprintf("ah-%05d", i), submit, spec.scale()))
	}
	return nil
}

// adhocJob samples one wide, short ad-hoc job — the interactive scans the
// paper's introduction motivates.
func adhocJob(rng *rand.Rand, id string, submit time.Duration, taskScale int) workflow.AdHoc {
	return workflow.AdHoc{
		ID:           id,
		Submit:       submit,
		Tasks:        (8 + rng.Intn(25)) * taskScale,
		TaskDuration: (time.Duration(30+rng.Intn(270)) * time.Second),
		TaskDemand:   resource.New(1, 2048),
	}
}

func genDiurnal(rng *rand.Rand, spec Spec, sc *Scenario) error {
	return genBase(rng, spec, sc)
}

// genFlash layers flash crowds over the diurnal base: one burst per
// simulated day, each cramming half a day's ad-hoc volume into a
// 10-30 minute window.
func genFlash(rng *rand.Rand, spec Spec, sc *Scenario) error {
	if err := genBase(rng, spec, sc); err != nil {
		return err
	}
	span := time.Duration(spec.Days) * day
	burst := max(8, spec.adhocPerDay()/2)
	for f := 0; f < spec.Days; f++ {
		at := time.Duration(rng.Int63n(int64(span - time.Hour)))
		width := time.Duration(10+rng.Intn(21)) * time.Minute
		for i := 0; i < burst; i++ {
			submit := (at + time.Duration(rng.Int63n(int64(width)))).Round(time.Second)
			sc.AdHoc = append(sc.AdHoc,
				adhocJob(rng, fmt.Sprintf("fc-%d-%04d", f, i), submit, spec.scale()))
		}
	}
	return nil
}

// genStragglers inflates actual-vs-estimated durations DAGPS-style: a
// quarter of the deadline jobs run 2-4x their estimate, the rest drift
// within ±10% — the regime where "do the hard stuff first" separates
// schedulers.
func genStragglers(rng *rand.Rand, spec Spec, sc *Scenario) error {
	if err := genBase(rng, spec, sc); err != nil {
		return err
	}
	return workload.InjectEstimationError(rng, sc.Workflows, -0.1, 0.1, 0.25)
}

// genChurn layers machine churn over the diurnal base: every hour ~2% of
// the fleet leaves (half gracefully, half by failure) and rejoins 30-120
// minutes later — rolling maintenance plus background mortality.
func genChurn(rng *rand.Rand, spec Spec, sc *Scenario) error {
	if err := genBase(rng, spec, sc); err != nil {
		return err
	}
	slotsPerHour := int64(time.Hour / spec.SlotDur)
	if slotsPerHour < 1 {
		slotsPerHour = 1
	}
	horizon := sc.Horizon
	outUntil := make([]int64, spec.Machines) // slot the machine rejoins; 0 = in
	perHour := spec.scale()
	for h := int64(1); h*slotsPerHour < horizon; h++ {
		slot := h * slotsPerHour
		for j := 0; j < perHour; j++ {
			i := rng.Intn(spec.Machines)
			if outUntil[i] > slot {
				continue // still out; churn a little less this hour
			}
			kind := machine.Leave
			if rng.Intn(2) == 0 {
				kind = machine.Fail
			}
			sc.Events = append(sc.Events, machine.Event{
				Slot: slot, Kind: kind, ID: sc.Machines[i].ID,
			})
			backIn := slot + (int64(30+rng.Intn(91))*int64(time.Minute))/int64(spec.SlotDur)
			if backIn <= slot {
				backIn = slot + 1
			}
			if backIn < horizon {
				sc.Events = append(sc.Events, machine.Event{
					Slot: backIn, Kind: machine.Join, Spec: sc.Machines[i],
				})
				outUntil[i] = backIn
			} else {
				outUntil[i] = horizon
			}
		}
	}
	return nil
}

// genEnergy layers an electricity-price capacity curve over the diurnal
// base: during peak-price hours (08:00-20:00) the cluster is scaled down
// to 60-80% of nominal, off-peak it runs at 100% — the energy-aware
// deadline-scheduling regime of Sarkar et al.
func genEnergy(rng *rand.Rand, spec Spec, sc *Scenario) error {
	if err := genBase(rng, spec, sc); err != nil {
		return err
	}
	slotsPerHour := int64(time.Hour / spec.SlotDur)
	if slotsPerHour < 1 {
		slotsPerHour = 1
	}
	prevPct := int64(100)
	for h := int64(0); h*slotsPerHour < sc.Horizon; h++ {
		hourOfDay := h % 24
		pct := int64(100)
		if hourOfDay >= 8 && hourOfDay < 20 {
			pct = int64(60 + rng.Intn(21))
		}
		if pct == prevPct {
			continue
		}
		prevPct = pct
		sc.Events = append(sc.Events, machine.Event{
			Slot: h * slotsPerHour, Kind: machine.SetScale, ScaleNum: pct, ScaleDen: 100,
		})
	}
	return nil
}
