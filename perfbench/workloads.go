package main

import (
	"fmt"
	"runtime"

	"multiscalar/internal/experiments"
)

// benchWorkload is one named set of experiment runners, run together in
// one fresh process.
type benchWorkload struct {
	name    string
	runners []string
	// classes are the cell classes (see classOf) that carry the
	// workload's engine cells; the traced run reports each one's seconds.
	classes []string
}

// workloads lists the benchmark's workloads. Each stresses a different
// layer (see README.md for the reasoning and the metric map):
//
//   - ideal-grid: the alias-free map-keyed predictors (ipath, iglobal,
//     iper, icttb) do nearly all the cell work; the timing model none.
//   - real-grid: realizable PHT/DOLC/CTTB/RAS predictors and the faulted
//     composed replay do the work; ideal tables carry a small share.
//   - spec-timing: speculative-update sessions with undo-ring repair run
//     beside the idealized lat/dlat FIFOs on the same PATH predictor,
//     and the ring timing model re-executes the functional machine.
var workloads = []benchWorkload{
	{"ideal-grid", []string{"fig6", "fig7", "fig8", "fig10", "fig11"},
		[]string{"ideal", "real"}},
	{"real-grid", []string{"fig12", "table3", "ablation-folding", "ablation-singleexit",
		"ablation-ras", "ablation-real-histories", "fault-sweep"},
		[]string{"ideal", "real", "fault"}},
	{"spec-timing", []string{"specupdate", "ablation-updatedelay", "table4"},
		[]string{"real", "spec", "timing"}},
}

// stepCaps is the set of trace caps a seed picks from. The caps lie
// within ±2% of each other, so every seed does nearly the same work (the
// end-to-end spread stays small) while a held-out seed still replays a
// different trace prefix and is checked against its own digests.
var stepCaps = []int{98000, 100000, 102000}

// timingSteps is the dynamic-task budget of every timing-model cell
// (table4 and specupdate's IPC table), the same for every seed.
const timingSteps = 40000

// capForSeed maps a workload seed to its trace cap.
func capForSeed(seed int64) int {
	i := seed % int64(len(stepCaps))
	if i < 0 {
		i += int64(len(stepCaps))
	}
	return stepCaps[i]
}

// workloadByName finds a benchmark workload.
func workloadByName(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// expConfig is the experiments configuration every runner sees.
func expConfig(stepCap, workers int) experiments.Config {
	return experiments.Config{MaxSteps: stepCap, TimingSteps: timingSteps, Workers: workers}
}

// nproc is the worker count of every untraced run.
func nproc() int { return runtime.NumCPU() }
