// Timing: run the Multiscalar ring timing model over one workload with
// every Table 4 predictor, and sweep the number of processing units to
// see how prediction accuracy limits the useful window size.
//
// Run with:
//
//	go run ./examples/timing
package main

import (
	"fmt"
	"log"

	"multiscalar/internal/engine"
	"multiscalar/internal/experiments"
	"multiscalar/internal/sim/timing"
	"multiscalar/internal/workload"
)

func main() {
	w, err := workload.ByName("exprc")
	if err != nil {
		log.Fatal(err)
	}
	graph, err := w.Graph()
	if err != nil {
		log.Fatal(err)
	}
	const steps = 150000

	fmt.Printf("workload %s (%s analog), %d-task timing runs\n\n", w.Name, w.Analog, steps)
	fmt.Println("Table 4 predictors on the default 4-unit, 2-way ring:")
	for _, p := range experiments.Table4Specs() {
		pred, err := engine.Build(p.Spec)
		if err != nil {
			log.Fatal(err)
		}
		res, err := timing.Run(graph, pred, timing.Config{MaxSteps: steps})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s IPC %.2f   task miss %5.2f%%   intra-task branch misses %d\n",
			p.Name, res.IPC(), 100*res.TaskMissRate(), res.IntraMispredicts)
	}

	// The sweep replays one recording of the task stream: it does not
	// depend on the predictor or the ring's shape.
	fmt.Println("\nunit sweep (PATH predictor): window size vs prediction accuracy")
	paths, err := timing.Record(graph, steps)
	if err != nil {
		log.Fatal(err)
	}
	path := experiments.Table4Specs()[3] // PATH
	pred, err := engine.Build(path.Spec)
	if err != nil {
		log.Fatal(err)
	}
	for _, units := range []int{1, 2, 4, 8, 16} {
		res, err := timing.Replay(paths, pred, timing.Config{Units: units})
		if err != nil {
			log.Fatal(err)
		}
		perfect, err := timing.Replay(paths, nil, timing.Config{Units: units})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %2d units: PATH IPC %.2f, perfect IPC %.2f (prediction costs %.0f%%)\n",
			units, res.IPC(), perfect.IPC(), 100*(1-res.IPC()/perfect.IPC()))
	}
}
