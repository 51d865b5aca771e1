// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload — a set of the paper's experiment runners — and reports
// host cost: tracing off, the end-to-end metrics (setup_s, wall_s, cpu_s,
// peak_heap_mib); tracing on, the per-layer ledger. Every rendered table
// is checked against the digests committed in digests.json, so a change
// that moves one output byte fails the run.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload ideal-grid --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload real-grid --seed 2 --seconds 30 --trace 1
//	bash perfbench/run.sh -steady 10 --workload spec-timing --seconds 30
//	bash perfbench/run.sh -record-digests perfbench/digests.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the metric
// map and why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "", "workload to run: ideal-grid, real-grid or spec-timing")
	seed := flag.Int64("seed", 1, "workload seed; picks the trace cap")
	seconds := flag.Int("seconds", 30, "measurement time of one untraced run")
	traced := flag.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
	steady := flag.Int("steady", 0, "run the workload this many times (seeds 1..N) and print each metric's spread against its bound")
	record := flag.String("record-digests", "", "render every runner at every cap and write the digest table to this file")
	setupChild := flag.Int("setup-child", 0, "internal: measure set-up at this cap in a fresh process and print it")
	outDir := flag.String("out-dir", ".bench_build", "directory for the traced run's span file")
	flag.Parse()

	switch {
	case *setupChild > 0:
		d, err := setup(*setupChild)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println(d.Seconds())
		return 0
	case *record != "":
		if err := recordDigests(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	w, err := workloadByName(*workloadName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	if *steady > 0 {
		if err := steadiness(w, *steady, *seconds, *traced); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	stepCap := capForSeed(*seed)
	fmt.Printf("perfbench: workload %s seed %d: trace cap %d, timing budget %d, %d workers\n",
		w.name, *seed, stepCap, timingSteps, nproc())

	var rep *report
	if *traced == 1 {
		rep, err = tracedRun(w, stepCap, *outDir)
	} else {
		rep, err = endToEnd(w, stepCap, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	want := e2eMetrics
	if *traced == 1 {
		want = layerMetrics
	}
	if err := rep.checkNames(want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.print(want)
	return 0
}

// metricDef names one reported metric, its unit and its direction.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better (otherwise lower is)
}

// e2eMetrics are the untraced run's metrics, in print order.
var e2eMetrics = []metricDef{
	{"setup_s", "s", false},
	{"wall_s", "s", false},
	{"cpu_s", "s", false},
	{"peak_heap_mib", "MiB", false},
}

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the result object a run prints as its last line.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects a run's operation counts and metrics.
type report struct {
	attempted int
	failed    int
	values    map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

// op records one operation's outcome.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// checkNames verifies the run produced exactly the metrics of defs.
func (r *report) checkNames(defs []metricDef) error {
	if len(r.values) != len(defs) {
		have := make([]string, 0, len(r.values))
		for n := range r.values {
			have = append(have, n)
		}
		sort.Strings(have)
		return fmt.Errorf("produced %d metrics, want %d: %v", len(r.values), len(defs), have)
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not produced", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
	}
	return nil
}

// print writes the metric table and, as the last line, the result
// object.
func (r *report) print(defs []metricDef) {
	out := runResult{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, map[string]metricValue{}}
	fmt.Printf("%-44s %16s  %s\n", "metric", "value", "unit")
	for _, d := range defs {
		v := r.values[d.name]
		fmt.Printf("%-44s %16.6g  %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metricValue{v, d.unit}
	}
	fmt.Printf("operations: %d attempted, %d failed\n", r.attempted, r.failed)
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // checkNames admits only finite floats, which always marshal
	}
	fmt.Println(string(line))
}
