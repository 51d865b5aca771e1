package taskpath

import (
	"errors"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/isa"
	"multiscalar/internal/sim/functional"
	"multiscalar/internal/taskform"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
)

// testProgram loops over a call whose body branches on the counter's low
// bit, then halts: a handful of tasks with several paths each.
const testProgram = `
.entry main
.stack 64
.space out 1

.func main
    li   sp, 63
    li   r2, 0
    j    @loop
loop:
    slti r3, r2, 12
    br   r3, @body, @done
body:
    add  r10, r2, zero
    jal  @f
    la   r4, $out
    lw   r5, 0(r4)
    add  r5, r5, rv
    sw   r5, 0(r4)
    addi r2, r2, 1
    j    @loop
done:
    halt

.func f
    mul  rv, r10, r10
    andi r6, r10, 1
    br   r6, @odd, @even
odd:
    addi rv, rv, 1
    j    @even
even:
    ret
`

func testGraph(t *testing.T) *tfg.Graph {
	t.Helper()
	p, err := asm.Assemble(testProgram)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	g, err := taskform.Partition(p, taskform.Options{MaxInstr: 8, MaxBlocks: 2})
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	return g
}

// TestStreamMatchesMachine checks a recording against an independent
// functional run: the concatenated paths are exactly the executed
// instructions, and each task's start, exit and successor match the
// machine's task trace.
func TestStreamMatchesMachine(t *testing.T) {
	g := testGraph(t)
	var events []functional.InstrEvent
	m := functional.NewMachine(g, functional.Config{Observer: func(ev functional.InstrEvent) {
		events = append(events, ev)
	}})
	tr, err := m.Run(functional.Config{})
	if err != nil {
		t.Fatal(err)
	}

	s, err := Record(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Halted() || s.Len() != tr.Len() {
		t.Fatalf("stream len %d halted %v, trace len %d", s.Len(), s.Halted(), tr.Len())
	}
	if s.NumPaths() >= s.Len() || s.NumPaths() < 4 {
		t.Fatalf("%d distinct paths over %d tasks", s.NumPaths(), s.Len())
	}
	k := 0
	for i, id := range s.IDs() {
		step := tr.Steps[i]
		if s.Start(id) != step.Task || s.Task(id) != g.TaskAt(step.Task) {
			t.Fatalf("task %d: start @%d, trace @%d", i, s.Start(id), step.Task)
		}
		if s.Exit(id) != int(step.Exit) {
			t.Fatalf("task %d: exit %d, trace %d", i, s.Exit(id), step.Exit)
		}
		if step.Exit != trace.HaltExit && s.Target(i) != step.Target {
			t.Fatalf("task %d: target @%d, trace @%d", i, s.Target(i), step.Target)
		}
		path := s.Path(id)
		for j, in := range path {
			ev := events[k]
			k++
			code := g.Prog.Code[ev.PC]
			intra := code.Op == isa.Br && !ev.EndsTask
			if in.PC != ev.PC || in.Op != code.Op || in.Def != code.Def() {
				t.Fatalf("task %d instr %d: %+v, executed @%d %v", i, j, in, ev.PC, code)
			}
			if (in.Flags&IntraBranch != 0) != intra || (intra && (in.Flags&Taken != 0) != ev.Taken) {
				t.Fatalf("task %d instr %d: flags %b, event %+v", i, j, in.Flags, ev)
			}
			if ev.EndsTask != (j == len(path)-1) {
				t.Fatalf("task %d instr %d: task end mismatch", i, j)
			}
		}
	}
	if k != len(events) {
		t.Fatalf("paths cover %d instructions, machine executed %d", k, len(events))
	}
}

// TestPrefixEqualsShortRecording checks the prefix contract: a prefix of
// a longer recording equals a recording made with the shorter budget,
// and a budget past the halt records the whole program.
func TestPrefixEqualsShortRecording(t *testing.T) {
	g := testGraph(t)
	all, err := Record(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	past, err := Record(g, all.Len()+50)
	if err != nil {
		t.Fatal(err)
	}
	if !past.Halted() || past.Len() != all.Len() {
		t.Fatalf("budget past halt: len %d halted %v", past.Len(), past.Halted())
	}
	for _, n := range []int{1, 2, 7, all.Len() - 1} {
		short, err := Record(g, n)
		if err != nil {
			t.Fatal(err)
		}
		pre := all.Prefix(n)
		if pre.Len() != n || pre.Halted() || short.Halted() {
			t.Fatalf("n=%d: prefix len %d halted %v, short halted %v", n, pre.Len(), pre.Halted(), short.Halted())
		}
		for i := 0; i < n; i++ {
			a, b := pre.IDs()[i], short.IDs()[i]
			if pre.Start(a) != short.Start(b) || pre.Exit(a) != short.Exit(b) || pre.Target(i) != short.Target(i) {
				t.Fatalf("n=%d task %d differs", n, i)
			}
		}
		if pre.Footprint() >= all.Footprint() {
			t.Fatalf("prefix view footprint %d not below its source's %d", pre.Footprint(), all.Footprint())
		}
	}
	if all.Prefix(all.Len()) != all || all.Prefix(1<<30) != all {
		t.Fatal("prefix at or past the length is not the stream itself")
	}
}

// TestPathLimit checks the uint16 id limit surfaces as *LimitError.
func TestPathLimit(t *testing.T) {
	g := testGraph(t)
	all, err := Record(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func(n int) { maxPaths = n }(maxPaths)
	maxPaths = all.NumPaths() - 1
	_, err = Record(g, 0)
	var le *LimitError
	if !errors.As(err, &le) || le.Limit != maxPaths {
		t.Fatalf("err = %v, want *LimitError at %d", err, maxPaths)
	}
	maxPaths = all.NumPaths()
	if _, err := Record(g, 0); err != nil {
		t.Fatalf("exactly at the limit: %v", err)
	}
}
