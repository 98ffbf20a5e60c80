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
}
