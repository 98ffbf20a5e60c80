package sim

import (
	"testing"

	"flowtime/internal/scenario"
	"flowtime/internal/sched"
)

// BenchmarkMachineModeDiurnal replays the diurnal scenario on 1,000
// machines for one simulated day under EDF — cheap enough that what is
// measured is the simulator and the placement layer, not a planner.
func BenchmarkMachineModeDiurnal(b *testing.B) {
	var slots, events int64
	for i := 0; i < b.N; i++ {
		b.StopTimer() // Run consumes the workload: generate a fresh one
		sc, err := scenario.Generate(scenario.Spec{Name: "diurnal", Machines: 1000, Days: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := Run(Config{SlotDur: sc.SlotDur, Horizon: sc.Horizon, Scheduler: sched.NewEDF(),
			Workflows: sc.Workflows, AdHoc: sc.AdHoc, Machines: &MachineMode{Initial: sc.Machines, Events: sc.Events}})
		if err != nil {
			b.Fatal(err)
		}
		slots, events = slots+res.Slots, events+res.Events
	}
	b.ReportMetric(float64(slots)/b.Elapsed().Seconds(), "slots/s")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
