// Package taskpath records a program's dynamic task stream at
// instruction level, for models that replay it many times (the ring
// timing model in internal/sim/timing).
//
// A task region is acyclic and its only dynamic-target transfers are its
// exits, so the instructions a task instance executes are fixed by the
// task's start address and the outcomes of the conditional branches it
// executes: its path. Record runs the functional machine once and interns
// every distinct path into a dictionary of pre-decoded instruction
// records; the stream itself is one uint16 path id per dynamic task.
package taskpath

import (
	"fmt"

	"multiscalar/internal/isa"
	"multiscalar/internal/sim/functional"
	"multiscalar/internal/tfg"
)

// MaxPaths is the largest number of distinct task paths a stream can
// hold: path ids are uint16.
const MaxPaths = 1<<16 - 1

// maxPaths is MaxPaths, lowered by tests that exercise the limit.
var maxPaths = MaxPaths

// LimitError reports a program whose dynamic task stream has more
// distinct task paths than a stream's uint16 path ids can name.
type LimitError struct {
	Limit int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("taskpath: more than %d distinct task paths; path ids are uint16", e.Limit)
}

// Instr flags.
const (
	// IntraBranch marks a conditional branch that stays inside its task
	// (not the task's final instruction).
	IntraBranch uint8 = 1 << iota
	// Taken marks a conditional branch that selected TargetA.
	Taken
)

// Instr is one pre-decoded dynamic instruction of a task path.
type Instr struct {
	PC         isa.Addr
	Op         isa.Op
	Use0, Use1 isa.Reg // source registers; isa.Zero when absent
	Def        isa.Reg // destination register; isa.Zero when none
	Flags      uint8
}

// Stream is a recorded dynamic task stream: one path id per task, into a
// dictionary of distinct task paths. The successor of task i is the
// start of task i+1; the successor of the last task is stored once.
//
// A Stream is immutable once recorded and safe for concurrent readers.
type Stream struct {
	ids    []uint16
	next   isa.Addr // successor of the last task (when it did not halt)
	halted bool     // the last task executed Halt
	shared bool     // a prefix view: ids and dictionary belong to another Stream

	// The dictionary, indexed by path id. Path p's instructions are
	// instrs[off[p]:off[p+1]]. Prefixes share it.
	start  []isa.Addr
	task   []*tfg.Task
	exit   []int8 // exit index; -1 for a halting path
	off    []uint32
	instrs []Instr
}

// Len returns the number of recorded tasks.
func (s *Stream) Len() int { return len(s.ids) }

// Halted reports whether the stream ends with the program's halt.
func (s *Stream) Halted() bool { return s.halted }

// IDs returns the per-task path-id column. Callers must not modify it.
func (s *Stream) IDs() []uint16 { return s.ids }

// NumPaths returns the number of distinct task paths in the dictionary.
func (s *Stream) NumPaths() int { return len(s.start) }

// Path returns the instructions of path id. Callers must not modify
// them.
func (s *Stream) Path(id uint16) []Instr { return s.instrs[s.off[id]:s.off[id+1]] }

// Start returns the start address of path id's task.
func (s *Stream) Start(id uint16) isa.Addr { return s.start[id] }

// Task returns path id's task.
func (s *Stream) Task(id uint16) *tfg.Task { return s.task[id] }

// Exit returns the exit index path id leaves its task by, or -1 for a
// path that ends in Halt.
func (s *Stream) Exit(id uint16) int { return int(s.exit[id]) }

// Target returns the successor address of task i: the next task's start,
// or the stored successor of the last task. It is meaningless for a task
// whose path halts.
func (s *Stream) Target(i int) isa.Addr {
	if i+1 < len(s.ids) {
		return s.start[s.ids[i+1]]
	}
	return s.next
}

// Prefix returns the stream of the first n tasks, sharing s's storage.
// The functional machine is deterministic, so it equals a stream
// recorded with a budget of n.
func (s *Stream) Prefix(n int) *Stream {
	if n >= s.Len() {
		return s
	}
	if n < 0 {
		n = 0
	}
	q := *s
	q.ids = s.ids[:n:n]
	q.next = s.start[s.ids[n]]
	q.halted = false
	q.shared = true
	return &q
}

// Footprint returns the heap bytes held by the path-id column and the
// dictionary. Prefix views share both and report only a header.
func (s *Stream) Footprint() int {
	const header = 160 // struct + slice headers, approximate
	if s.shared {
		return header
	}
	return header + 2*len(s.ids) + 4*len(s.start) + 8*len(s.task) + len(s.exit) +
		4*len(s.off) + 12*len(s.instrs)
}

// trieNode is a node of the recorder's path trie: one task start plus a
// prefix of branch outcomes. child is indexed by the outcome (1 = taken);
// 0 is the null node. path is the id+1 of the path ending here, 0 if none.
type trieNode struct {
	child [2]int32
	path  int32
}

// pcTaken is one observed instruction of the task in progress.
type pcTaken struct {
	pc    isa.Addr
	taken bool
}

// recorder interns the observed instruction stream into a Stream.
type recorder struct {
	g     *tfg.Graph
	code  []isa.Instr
	s     *Stream
	roots []int32 // trie root per task start address; 0 = none yet
	nodes []trieNode
	node  int32 // current trie node; 0 between tasks
	buf   []pcTaken
	uses  []isa.Reg
	err   error
}

// Record executes the program under g on the functional machine for at
// most steps dynamic tasks (0 = until it halts) and returns the recorded
// stream. Functional-machine errors are returned unwrapped; a program
// with more than MaxPaths distinct paths returns a *LimitError.
func Record(g *tfg.Graph, steps int) (*Stream, error) {
	r := &recorder{
		g:     g,
		code:  g.Prog.Code,
		s:     &Stream{off: []uint32{0}},
		roots: make([]int32, len(g.Prog.Code)),
		nodes: make([]trieNode, 1, 256),
	}
	if steps > 0 {
		r.s.ids = make([]uint16, 0, min(steps, 1<<20))
	}
	m := functional.NewMachine(g, functional.Config{Observer: r.observe})
	// Run in segments so the machine's own step trace (12 B per task)
	// stays bounded on long recordings.
	const segment = 1 << 15
	for {
		chunk := segment
		if steps > 0 {
			chunk = min(chunk, steps-len(r.s.ids))
		}
		if chunk <= 0 {
			break
		}
		seg, err := m.Run(functional.Config{MaxSteps: chunk})
		if r.err != nil {
			return nil, r.err
		}
		if err != nil {
			return nil, err
		}
		if m.Stats().Halted {
			break
		}
		if len(seg.Steps) == 0 {
			return nil, fmt.Errorf("taskpath: simulation made no progress at task %d", len(r.s.ids))
		}
	}
	s := r.s
	s.halted = m.Stats().Halted
	if cap(s.ids) != len(s.ids) {
		s.ids = append([]uint16(nil), s.ids...)
	}
	return s, nil
}

// observe consumes one executed instruction.
func (r *recorder) observe(ev functional.InstrEvent) {
	if r.err != nil {
		return
	}
	if r.node == 0 {
		root := r.roots[ev.PC]
		if root == 0 {
			root = r.newNode()
			r.roots[ev.PC] = root
		}
		r.node = root
		r.buf = r.buf[:0]
	}
	r.buf = append(r.buf, pcTaken{ev.PC, ev.Taken})
	switch r.code[ev.PC].Op {
	case isa.Br:
		b := 0
		if ev.Taken {
			b = 1
		}
		c := r.nodes[r.node].child[b]
		if c == 0 {
			c = r.newNode()
			r.nodes[r.node].child[b] = c
		}
		r.node = c
	case isa.Jr, isa.Jalr, isa.Ret:
		if !ev.EndsTask {
			// A dynamic-target transfer inside a task would make the
			// path depend on a register value, not only on branch
			// outcomes. Task formation never builds such a region.
			r.err = fmt.Errorf("taskpath: indirect transfer @%d stays inside its task; paths are not determined by branch outcomes", ev.PC)
			return
		}
	}
	if !ev.EndsTask {
		return
	}
	id := r.nodes[r.node].path - 1
	if id < 0 {
		if id = int32(len(r.s.start)); int(id) >= maxPaths {
			r.err = &LimitError{Limit: maxPaths}
			return
		}
		r.intern(ev.Exit)
		r.nodes[r.node].path = id + 1
	}
	r.s.ids = append(r.s.ids, uint16(id))
	r.s.next = ev.Target
	r.node = 0
}

func (r *recorder) newNode() int32 {
	r.nodes = append(r.nodes, trieNode{})
	return int32(len(r.nodes) - 1)
}

// intern appends the buffered task instance to the dictionary as a new
// path leaving by the given exit, decoding each instruction once.
func (r *recorder) intern(exit int) {
	s := r.s
	first := r.buf[0].pc
	s.start = append(s.start, first)
	s.task = append(s.task, r.g.TaskAt(first))
	s.exit = append(s.exit, int8(exit))
	for i, e := range r.buf {
		in := &r.code[e.pc]
		r.uses = in.Uses(r.uses[:0])
		rec := Instr{PC: e.pc, Op: in.Op, Def: in.Def()}
		if len(r.uses) > 0 {
			rec.Use0 = r.uses[0]
		}
		if len(r.uses) > 1 {
			rec.Use1 = r.uses[1]
		}
		if in.Op == isa.Br && i < len(r.buf)-1 {
			rec.Flags |= IntraBranch
			if e.taken {
				rec.Flags |= Taken
			}
		}
		s.instrs = append(s.instrs, rec)
	}
	s.off = append(s.off, uint32(len(s.instrs)))
}
