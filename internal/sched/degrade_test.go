package sched

import "testing"

func TestDegradeLevelString(t *testing.T) {
	for lv, want := range map[DegradeLevel]string{
		DegradeNone:      "full",
		DegradeMinMax:    "minmax",
		DegradeGreedy:    "greedy",
		DegradeLevel(99): "level(99)",
	} {
		if got := lv.String(); got != want {
			t.Errorf("DegradeLevel(%d).String() = %q, want %q", lv, got, want)
		}
	}
	var st DegradationStatus
	if st.Degraded() {
		t.Error("zero DegradationStatus reports degraded")
	}
	st.GreedyFallbacks = 1
	if !st.Degraded() {
		t.Error("status with fallbacks does not report degraded")
	}
}
