package trace_test

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
	"multiscalar/internal/workload"
)

// validateSteps bounds the workload traces the columnar-validation tests
// check.
const validateSteps = 100000

// withGraph returns a copy of c bound to a clone of its graph that
// mutate has edited; c and its graph stay untouched.
func withGraph(c *trace.Columnar, mutate func(g *tfg.Graph)) *trace.Columnar {
	g := *c.Graph
	g.Tasks = maps.Clone(g.Tasks)
	mutate(&g)
	cp := *c
	cp.Graph = &g
	return &cp
}

// TestColumnarValidateWorkloads checks Columnar.Validate against
// Trace.Validate on every workload: both accept the recorded trace, and
// both reject it, with the same message, once a cloned graph contradicts
// a recorded header target or drops a task the trace jumps to.
func TestColumnarValidateWorkloads(t *testing.T) {
	for _, w := range workload.All() {
		c, err := workload.CachedColumnar(w.Name, validateSteps)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := c.Materialize().Validate(); err != nil {
			t.Fatalf("%s: Trace.Validate: %v", w.Name, err)
		}

		// The first step leaving through an exit with a static target,
		// to a task other than its own.
		steps := c.Materialize().Steps
		at := slices.IndexFunc(steps, func(s trace.Step) bool {
			if s.Exit == trace.HaltExit || s.Target == s.Task {
				return false
			}
			return c.Graph.TaskAt(s.Task).Exits[s.Exit].HasTarget
		})
		if at < 0 {
			t.Fatalf("%s: no step leaves through a static-target exit", w.Name)
		}
		s := steps[at]
		planted := map[string]*trace.Columnar{
			"!= header": withGraph(c, func(g *tfg.Graph) {
				task := *g.Tasks[s.Task]
				task.Exits = slices.Clone(task.Exits)
				task.Exits[s.Exit].Target++
				g.Tasks[s.Task] = &task
			}),
			"is not a task": withGraph(c, func(g *tfg.Graph) { delete(g.Tasks, s.Target) }),
		}
		for want, bad := range planted {
			got, ref := bad.Validate(), bad.Materialize().Validate()
			if got == nil || !strings.Contains(got.Error(), want) {
				t.Errorf("%s: planted %q violation: Validate = %v", w.Name, want, got)
			}
			if ref == nil || got.Error() != ref.Error() {
				t.Errorf("%s: Columnar.Validate = %v, Trace.Validate = %v", w.Name, got, ref)
			}
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: planting wrote through to the shared trace: %v", w.Name, err)
		}
	}
}
