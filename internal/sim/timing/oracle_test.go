package timing_test

import (
	"reflect"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/experiments"
	"multiscalar/internal/fault"
	"multiscalar/internal/sim/timing"
	"multiscalar/internal/taskform"
	"multiscalar/internal/tfg"
	"multiscalar/internal/workload"
)

// oracleSteps is the Table 4 timing budget of the benchmark workloads;
// the spec-lag grid runs on its oracleGridSteps prefix.
const (
	oracleSteps     = 40000
	oracleGridSteps = 4000
)

// buildPred builds a fresh task predictor from an engine spec (nil for
// perfect).
func buildPred(t testing.TB, spec string) core.TaskPredictor {
	t.Helper()
	sp, err := engine.Parse(spec)
	if err != nil {
		t.Fatalf("parse %q: %v", spec, err)
	}
	p, err := sp.BuildTask()
	if err != nil {
		t.Fatalf("build %q: %v", spec, err)
	}
	return p
}

// checkAgainstRef replays p under a fresh predictor and requires the
// result to equal the reference ring model's run over the same budget.
func checkAgainstRef(t *testing.T, g *tfg.Graph, p *timing.Paths, spec string, cfg timing.Config) {
	t.Helper()
	got, err := timing.Replay(p, buildPred(t, spec), cfg)
	if err != nil {
		t.Fatalf("%s %+v: replay: %v", spec, cfg, err)
	}
	want, err := refRun(g, buildPred(t, spec), cfg)
	if err != nil {
		t.Fatalf("%s %+v: reference: %v", spec, cfg, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %+v:\nreplay    %+v\nreference %+v", spec, cfg, got, want)
	}
}

// TestReplayMatchesReference is the timing layer's differential oracle:
// Replay over a memoized recording must reproduce the observer-driven
// reference exactly, for every Table 4 predictor on every workload, in
// idealized and speculative-update mode, under fault injection, and for
// budgets served both by their own recording and as prefixes of a
// longer one.
func TestReplayMatchesReference(t *testing.T) {
	specs := experiments.Table4Specs()
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			g, err := w.Graph()
			if err != nil {
				t.Fatal(err)
			}
			full, err := workload.CachedPaths(w.Name, oracleSteps)
			if err != nil {
				t.Fatal(err)
			}
			if full.Len() != oracleSteps {
				t.Fatalf("recorded %d tasks, want %d", full.Len(), oracleSteps)
			}
			for _, s := range specs {
				// Idealized update at the full budget.
				checkAgainstRef(t, g, full, s.Spec, timing.Config{MaxSteps: oracleSteps})

				// Speculative update over the lag × repair-latency grid,
				// on a prefix of the longer recording.
				grid, err := workload.CachedPaths(w.Name, oracleGridSteps)
				if err != nil {
					t.Fatal(err)
				}
				if grid.Len() != oracleGridSteps {
					t.Fatalf("prefix has %d tasks, want %d", grid.Len(), oracleGridSteps)
				}
				for _, lag := range []int{0, 1, 4, 8} {
					for _, rlat := range []int{0, 8, 32} {
						checkAgainstRef(t, g, grid, s.Spec, timing.Config{
							MaxSteps: oracleGridSteps, SpecUpdate: true, SpecLag: lag, RepairLatency: rlat})
					}
				}
			}

			// Budgets 1 and 7: their own recordings, memo prefixes and
			// Replay's MaxSteps prefix must all agree with the reference.
			std := experiments.StdSpec()
			for _, n := range []int{1, 7} {
				own, err := timing.Record(g, n)
				if err != nil {
					t.Fatal(err)
				}
				memo, err := workload.CachedPaths(w.Name, n)
				if err != nil {
					t.Fatal(err)
				}
				cfg := timing.Config{MaxSteps: n}
				for _, p := range []*timing.Paths{own, memo, full} {
					checkAgainstRef(t, g, p, std, cfg)
					checkAgainstRef(t, g, p, "perfect", cfg)
				}
			}
		})
	}
}

// TestReplayMatchesReferenceFaulted drives both ring models through
// fault injectors seeded alike: the timing results and the injectors'
// activity must match.
func TestReplayMatchesReferenceFaulted(t *testing.T) {
	fs, err := fault.ParseSpec("all=1e-2,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	std := experiments.StdSpec()
	for _, name := range []string{"exprc", "compressb"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := w.Graph()
		if err != nil {
			t.Fatal(err)
		}
		p, err := workload.CachedPaths(name, oracleSteps)
		if err != nil {
			t.Fatal(err)
		}
		a, err := fault.New(fs, buildPred(t, std))
		if err != nil {
			t.Fatal(err)
		}
		b, err := fault.New(fs, buildPred(t, std))
		if err != nil {
			t.Fatal(err)
		}
		cfg := timing.Config{MaxSteps: oracleSteps}
		got, err := timing.Replay(p, a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refRun(g, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: replay %+v, reference %+v", name, got, want)
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("%s: injector stats differ: replay %+v, reference %+v", name, a.Stats(), b.Stats())
		}
		if a.Stats().TotalInjected() == 0 {
			t.Fatalf("%s: no faults injected", name)
		}
	}
}

// haltProgram runs a short counted loop with a call per iteration and
// halts after a few dozen dynamic tasks.
const haltProgram = `
.entry main
.stack 64
.space out 1

.func main
    li   sp, 63
    li   r2, 0
    j    @loop
loop:
    slti r3, r2, 9
    br   r3, @body, @done
body:
    add  r10, r2, zero
    jal  @sq
    la   r4, $out
    lw   r5, 0(r4)
    add  r5, r5, rv
    sw   r5, 0(r4)
    addi r2, r2, 1
    j    @loop
done:
    halt

.func sq
    mul  rv, r10, r10
    andi r6, r10, 1
    br   r6, @odd, @even
odd:
    addi rv, rv, 1
    j    @even
even:
    ret
`

// divProgram divides by a counter that reaches zero on the fourth
// iteration: a functional error a few tasks in.
const divProgram = `
.entry main
.func main
    li   r2, 3
    li   r7, 60
    j    @loop
loop:
    div  r8, r7, r2
    addi r2, r2, -1
    jal  @id
    j    @loop

.func id
    add  rv, r8, zero
    ret
`

func asmGraph(t testing.TB, src string) *tfg.Graph {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	g, err := taskform.Partition(p, taskform.Options{MaxInstr: 8, MaxBlocks: 2})
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	return g
}

// TestReplayRunToHalt records a quickly halting program to its end and
// past it: the halt task is replayed, budgets beyond it change nothing,
// and both agree with the reference.
func TestReplayRunToHalt(t *testing.T) {
	g := asmGraph(t, haltProgram)
	all, err := timing.Record(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !all.Halted() || all.Len() < 20 {
		t.Fatalf("recording: halted=%v after %d tasks", all.Halted(), all.Len())
	}
	past, err := timing.Record(g, all.Len()+100)
	if err != nil {
		t.Fatal(err)
	}
	if !past.Halted() || past.Len() != all.Len() {
		t.Fatalf("budget past halt: halted=%v len=%d, want %d", past.Halted(), past.Len(), all.Len())
	}
	std := experiments.StdSpec()
	for _, p := range []*timing.Paths{all, past} {
		for _, cfg := range []timing.Config{{}, {MaxSteps: 1 << 30}, {SpecUpdate: true, SpecLag: 4, RepairLatency: 8}} {
			checkAgainstRef(t, g, p, std, cfg)
			checkAgainstRef(t, g, p, "perfect", cfg)
		}
	}
	// A prefix of a halted recording is not halted.
	if pre := all.Prefix(5); pre.Halted() || pre.Len() != 5 {
		t.Fatalf("prefix: halted=%v len=%d", pre.Halted(), pre.Len())
	}
	checkAgainstRef(t, g, all, std, timing.Config{MaxSteps: 5})
}

// TestRecordErrorPropagates requires a functional-machine error to come
// back from Record and Run exactly as the reference reports it.
func TestRecordErrorPropagates(t *testing.T) {
	g := asmGraph(t, divProgram)
	_, want := refRun(g, nil, timing.Config{})
	if want == nil {
		t.Fatal("reference run did not fail")
	}
	if _, err := timing.Record(g, 0); err == nil || err.Error() != want.Error() {
		t.Fatalf("Record error %v, want %v", err, want)
	}
	if _, err := timing.Run(g, buildPred(t, experiments.StdSpec()), timing.Config{}); err == nil || err.Error() != want.Error() {
		t.Fatalf("Run error %v, want %v", err, want)
	}
}

// FuzzTimingPrefix checks the prefix contract: replaying the a-task
// prefix of a b-budget recording equals recording a tasks afresh, for
// any workload, Table 4 predictor and update mode; budgets past the
// program's halt must not panic.
func FuzzTimingPrefix(f *testing.F) {
	f.Add(uint8(0), uint16(100), uint16(400), uint8(3), false, uint8(0), uint8(0))
	f.Add(uint8(4), uint16(1), uint16(1), uint8(0), true, uint8(4), uint8(8))
	f.Add(uint8(5), uint16(30), uint16(5000), uint8(2), true, uint8(1), uint8(32))
	f.Add(uint8(2), uint16(4095), uint16(2000), uint8(4), false, uint8(8), uint8(8))
	specs := experiments.Table4Specs()
	graphs := map[uint8]*tfg.Graph{}
	f.Fuzz(func(t *testing.T, wl uint8, a, b uint16, si uint8, spec bool, lag, rlat uint8) {
		names := workload.Names()
		wl %= uint8(len(names) + 1)
		g := graphs[wl]
		if g == nil {
			if int(wl) == len(names) {
				g = asmGraph(t, haltProgram) // halts after a few dozen tasks
			} else {
				w, err := workload.ByName(names[wl])
				if err != nil {
					t.Fatal(err)
				}
				if g, err = w.Graph(); err != nil {
					t.Fatal(err)
				}
			}
			graphs[wl] = g
		}
		// Budgets stay positive: a budget of 0 records to halt, over a
		// million tasks on the benchmark workloads.
		a, b = a%4096+1, b%4096+1
		if a > b {
			a, b = b, a
		}
		sp := specs[int(si)%len(specs)].Spec
		cfg := timing.Config{SpecUpdate: spec, SpecLag: int(lag % 9), RepairLatency: int(rlat % 40)}

		long, err := timing.Record(g, int(b))
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := timing.Record(g, int(a))
		if err != nil {
			t.Fatal(err)
		}
		pre := long.Prefix(int(a))
		if pre.Len() != fresh.Len() || pre.Halted() != fresh.Halted() {
			t.Fatalf("prefix %d of %d: len %d halted %v, fresh len %d halted %v",
				a, b, pre.Len(), pre.Halted(), fresh.Len(), fresh.Halted())
		}
		got, err := timing.Replay(pre, buildPred(t, sp), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := timing.Replay(fresh, buildPred(t, sp), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %+v prefix %d of %d:\nprefix %+v\nfresh  %+v", sp, cfg, a, b, got, want)
		}
		if got.Tasks != pre.Len() {
			t.Fatalf("replayed %d tasks of %d", got.Tasks, pre.Len())
		}
	})
}
