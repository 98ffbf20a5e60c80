package core

import (
	"fmt"

	"flowtime/internal/sched"
)

// NewScheduler builds a scheduler by its evaluation name: FlowTime, under
// flowTimeCfg, or one of the paper's baselines. History is only used by
// Morpheus.
func NewScheduler(name string, history sched.History, flowTimeCfg Config) (sched.Scheduler, error) {
	switch name {
	case "FlowTime":
		return New(flowTimeCfg), nil
	case "CORA":
		return sched.NewCORA(), nil
	case "EDF":
		return sched.NewEDF(), nil
	case "Fair":
		return sched.NewFair(), nil
	case "FIFO":
		return sched.NewFIFO(), nil
	case "Morpheus":
		return sched.NewMorpheus(history), nil
	default:
		return nil, fmt.Errorf("core: unknown scheduler %q", name)
	}
}
