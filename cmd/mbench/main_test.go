package main

import (
	"testing"

	"multiscalar/internal/obs"
)

// TestRunLine pins watchRuns' progress line: the ETA is "unknown" until a
// step has been credited, then the extrapolated seconds; runs without a
// total show no ETA at all.
func TestRunLine(t *testing.T) {
	cases := []struct {
		snap obs.RunStatusSnapshot
		more int
		want string
	}{
		{obs.RunStatusSnapshot{Workload: "exprc", Mode: "task", Total: 9000},
			0, "mbench: run exprc/task 0/9000 steps (0%, 0 steps/s, eta unknown)"},
		{obs.RunStatusSnapshot{Workload: "exprc", Mode: "task", Steps: 4096, Total: 9000, StepsPerSecond: 2048, ETASeconds: 2.39},
			2, "mbench: run exprc/task 4096/9000 steps (46%, 2048 steps/s, eta 2s) (+2 more)"},
		{obs.RunStatusSnapshot{Workload: "exprc", Mode: "task", Steps: 9000, Total: 9000, StepsPerSecond: 3000},
			0, "mbench: run exprc/task 9000/9000 steps (100%, 3000 steps/s, eta 0s)"},
		{obs.RunStatusSnapshot{Workload: "boolmin", Mode: "exit", Steps: 100, StepsPerSecond: 50},
			1, "mbench: run boolmin/exit 100 steps (50 steps/s) (+1 more)"},
	}
	for _, c := range cases {
		if got := runLine(c.snap, c.more); got != c.want {
			t.Errorf("runLine(%+v, %d)\n got %q\nwant %q", c.snap, c.more, got, c.want)
		}
	}
}
