package fault_test

import (
	"strings"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/fault"
	"multiscalar/internal/trace"
	"multiscalar/internal/workload"
)

// testTrace returns a bounded trace for a workload (cached by the
// workload registry across tests).
func testTrace(t testing.TB, name string, steps int) *trace.Trace {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.TraceN(steps)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// testColumnar returns a bounded columnar trace for a workload, shared
// read-only through the process-wide cache.
func testColumnar(t testing.TB, name string, steps int) *trace.Columnar {
	t.Helper()
	c, err := workload.CachedColumnar(name, steps)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fullSpec is the composed predictor every fault kind can reach:
// path-based exit prediction, a RAS, and a CTTB.
const fullSpec = "composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3"

func fullPredictor() core.TaskPredictor {
	return engine.MustBuild(fullSpec)
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := fault.New(fault.Spec{}, nil); err == nil {
		t.Fatal("New accepted a nil inner predictor")
	}
	bad := fault.Spec{}
	bad.Rate[fault.KindCounter] = 2
	if _, err := fault.New(bad, fullPredictor()); err == nil {
		t.Fatal("New accepted an out-of-range rate")
	}
}

func TestDisabledInjectorIsTransparent(t *testing.T) {
	tr := testTrace(t, "exprc", 4000)
	base := core.EvaluateTask(tr, fullPredictor())
	inj := fault.MustNew(fault.Spec{}, fullPredictor())
	got := core.EvaluateTask(tr, inj)
	if got.Misses != base.Misses || got.Steps != base.Steps {
		t.Fatalf("disabled injector changed the result: %+v vs %+v", got, base)
	}
	if n := inj.Stats().TotalInjected(); n != 0 {
		t.Fatalf("disabled injector injected %d faults", n)
	}
}

func TestInjectorName(t *testing.T) {
	inj := fault.MustNew(fault.MustSpec("ctr=0.5,seed=3"), fullPredictor())
	name := inj.Name()
	if !strings.Contains(name, "ctr=0.5") || !strings.Contains(name, fullSpec) {
		t.Fatalf("Name() = %q", name)
	}
}

func TestInjectorDeterminismAndReset(t *testing.T) {
	tr := testTrace(t, "exprc", 4000)
	spec := fault.MustSpec("all=0.05,seed=99")

	// TaskResult holds a map, so compare the scalar (steps, misses) pair.
	run := func(inj *fault.Injector) ([2]int, fault.Stats) {
		res := core.EvaluateTask(tr, inj)
		return [2]int{res.Steps, res.Misses}, inj.Stats()
	}

	injA := fault.MustNew(spec, fullPredictor())
	resA, statsA := run(injA)

	// A fresh injector with the same seed reproduces the exact fault
	// sequence and result.
	resB, statsB := run(fault.MustNew(spec, fullPredictor()))
	if resA != resB || statsA != statsB {
		t.Fatalf("same seed, different runs: %+v/%v vs %+v/%v", resA, statsA, resB, statsB)
	}

	// Reset rewinds the injector (and its inner predictor) to the same
	// initial state.
	injA.Reset()
	resC, statsC := run(injA)
	if resA != resC || statsA != statsC {
		t.Fatalf("Reset replay differs: %+v/%v vs %+v/%v", resA, statsA, resC, statsC)
	}

	// A different seed picks a different fault sequence (with rates this
	// high the stats are overwhelmingly unlikely to collide exactly).
	other := spec
	other.Seed = 1234
	_, statsD := run(fault.MustNew(other, fullPredictor()))
	if statsA == statsD {
		t.Fatalf("different seeds produced identical stats: %v", statsA)
	}
}

func TestUpdateDropsAreCounted(t *testing.T) {
	tr := testTrace(t, "exprc", 4000)
	inj := fault.MustNew(fault.MustSpec("upd=1"), fullPredictor())
	res := core.EvaluateTask(tr, inj)
	st := inj.Stats()
	if st.Kind[fault.KindUpdate].Injected != res.Steps {
		t.Fatalf("upd=1 dropped %d updates over %d steps", st.Kind[fault.KindUpdate].Injected, res.Steps)
	}

	// With every update lost the predictor never trains; it must miss at
	// least as much as the trained baseline.
	base := core.EvaluateTask(tr, fullPredictor())
	if res.Misses < base.Misses {
		t.Fatalf("untrained predictor missed less (%d) than trained baseline (%d)", res.Misses, base.Misses)
	}
}

func TestEveryKindInjects(t *testing.T) {
	// At rate 1 on a real trace, every state-corruption kind must actually
	// land faults — proving each hook is wired through the composed
	// predictor. upd stays off: dropping every update would keep the RAS
	// and CTTB untrained and empty, leaving ras/ttb nothing to corrupt
	// (upd itself is covered by TestUpdateDropsAreCounted).
	tr := testTrace(t, "exprc", 4000)
	inj := fault.MustNew(fault.MustSpec("ctr=1,hist=1,ras=1,ttb=1"), fullPredictor())
	core.EvaluateTask(tr, inj)
	st := inj.Stats()
	for _, k := range []fault.Kind{fault.KindCounter, fault.KindHistory, fault.KindRAS, fault.KindTTB} {
		if st.Kind[k].Rolled == 0 {
			t.Errorf("%s: never rolled", k)
		}
		if st.Kind[k].Injected == 0 {
			t.Errorf("%s: rolled %d times, injected nothing", k, st.Kind[k].Rolled)
		}
	}
}

func TestStatsString(t *testing.T) {
	var st fault.Stats
	if got := st.String(); got != "none" {
		t.Fatalf("zero stats String() = %q", got)
	}
	st.Kind[fault.KindCounter] = fault.KindStats{Rolled: 5, Injected: 4}
	if got := st.String(); got != "ctr 4/5" {
		t.Fatalf("String() = %q", got)
	}
}
