package multiscalar_test

// Differential test for faulted replay on the block path: every faulted
// engine cell must reproduce the array-of-structs replay the engine ran
// before faults moved onto the columns.

import (
	"fmt"
	"reflect"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/experiments"
	"multiscalar/internal/fault"
	"multiscalar/internal/workload"
)

// TestFaultedCellsMatchLegacy runs the fault-sweep grid — every
// workload × every non-zero FaultSweepRates point, at the sweep's seed
// and one more — through engine.Do and through core.EvaluateTask over
// the materialized trace with a fresh injector. TaskResult (ByKind
// included) and the injector's Stats must be equal.
func TestFaultedCellsMatchLegacy(t *testing.T) {
	seeds := []uint32{experiments.FaultSweepSeed, 24301}
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tr := equivColumnar(t, name).Materialize()
			for _, rate := range experiments.FaultSweepRates {
				if rate == 0 {
					continue
				}
				for _, seed := range seeds {
					spec := fmt.Sprintf("all=%g,seed=%d", rate, seed)
					got := engine.Do(engine.Run{Workload: name, Spec: experiments.StdSpec(),
						Fault: spec, MaxSteps: equivSteps})
					if got.Err != nil {
						t.Fatalf("%s: %v", spec, got.Err)
					}
					inj := fault.MustNew(fault.MustSpec(spec), engine.MustBuild(experiments.StdSpec()))
					want := core.EvaluateTask(tr, inj)
					if !reflect.DeepEqual(got.Task, want) {
						t.Errorf("%s: engine %+v != legacy %+v", spec, got.Task, want)
					}
					if got.Injection != inj.Stats() {
						t.Errorf("%s: engine injected %v, legacy %v", spec, got.Injection, inj.Stats())
					}
				}
			}
		})
	}
}
