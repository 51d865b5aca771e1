package timing_test

import (
	"fmt"

	"multiscalar/internal/core"
	"multiscalar/internal/isa"
	"multiscalar/internal/sim/functional"
	"multiscalar/internal/sim/timing"
	"multiscalar/internal/tfg"
)

// Reference ring model for the differential oracle (oracle_test.go): the
// observer-driven layout that Record/Replay replaced. It re-executes the
// program on the functional machine per run and decodes every
// instruction's operands, destination and latency in an observer
// callback as the machine executes it. Its defaults and latency table
// are spelled out here rather than taken from the package, so a change
// to either on one side shows up as a difference.

// refDefaults fills a Config's zero fields with the documented defaults.
func refDefaults(c timing.Config) timing.Config {
	if c.Units == 0 {
		c.Units = 4
	}
	if c.IssueWidth == 0 {
		c.IssueWidth = 2
	}
	if c.BranchPenalty == 0 {
		c.BranchPenalty = 4
	}
	if c.RestartPenalty == 0 {
		c.RestartPenalty = 8
	}
	if c.ForwardLatency == 0 {
		c.ForwardLatency = 1
	}
	if c.BimodalBits == 0 {
		c.BimodalBits = 10
	}
	return c
}

// refLatency returns the execution latency of an opcode.
func refLatency(op isa.Op) uint64 {
	switch op {
	case isa.Mul, isa.MulI:
		return 3
	case isa.Div, isa.Rem:
		return 8
	case isa.Lw:
		return 2
	default:
		return 1
	}
}

// refRun executes the program under g with the given inter-task
// predictor (nil = perfect) and returns timing results.
func refRun(g *tfg.Graph, pred core.TaskPredictor, cfg timing.Config) (timing.Result, error) {
	cfg = refDefaults(cfg)
	if pred != nil {
		pred.Reset()
	}

	s := &refState{
		cfg:      cfg,
		graph:    g,
		code:     g.Prog.Code,
		pred:     pred,
		unitFree: make([]uint64, cfg.Units),
		bimodal:  make([][]uint8, cfg.Units),
	}
	if cfg.SpecUpdate && pred != nil {
		sess, err := core.NewSpecTaskSession(pred, cfg.SpecLag)
		if err != nil {
			return timing.Result{}, fmt.Errorf("timing: %w", err)
		}
		s.sess = sess
	}
	for u := range s.bimodal {
		s.bimodal[u] = make([]uint8, 1<<uint(cfg.BimodalBits))
		for i := range s.bimodal[u] {
			s.bimodal[u][i] = 2
		}
	}

	m := functional.NewMachine(g, functional.Config{Observer: s.observe})
	if _, err := m.Run(functional.Config{MaxSteps: cfg.MaxSteps}); err != nil {
		return timing.Result{}, fmt.Errorf("timing: %w", err)
	}
	if s.sess != nil {
		s.sess.Finish()
		s.res.Rollbacks = s.sess.Rollbacks()
	}
	s.res.Instrs = m.Stats().Instrs
	s.res.Cycles = s.prevCommit
	return s.res, nil
}

// refState is the reference ring model's accumulator, driven by
// instruction events.
type refState struct {
	cfg   timing.Config
	graph *tfg.Graph
	code  []isa.Instr
	pred  core.TaskPredictor
	sess  *core.SpecTaskSession

	res timing.Result

	regReady  [isa.NumRegs]uint64
	regWriter [isa.NumRegs]int

	unitFree []uint64
	bimodal  [][]uint8

	dispatch   uint64
	prevCommit uint64

	taskIdx   int
	curUnit   int
	started   bool
	slotCycle uint64
	slotUsed  int
	complete  uint64
	curTask   isa.Addr

	useBuf []isa.Reg
}

func (s *refState) beginTask(start isa.Addr) {
	s.curUnit = s.taskIdx % s.cfg.Units
	t := s.dispatch
	if f := s.unitFree[s.curUnit]; f > t {
		t = f
	}
	s.dispatch = t + 1
	s.slotCycle = t
	s.slotUsed = 0
	s.complete = t
	s.curTask = start
	s.started = true
}

func (s *refState) observe(ev functional.InstrEvent) {
	if !s.started {
		s.beginTask(ev.PC)
	}
	in := &s.code[ev.PC]

	ready := s.slotCycle
	s.useBuf = in.Uses(s.useBuf[:0])
	for _, r := range s.useBuf {
		if r == isa.Zero {
			continue
		}
		t := s.regReady[r]
		if s.regWriter[r] != s.taskIdx {
			t += uint64(s.cfg.ForwardLatency)
		}
		if t > ready {
			ready = t
		}
	}

	if s.slotUsed >= s.cfg.IssueWidth {
		s.slotCycle++
		s.slotUsed = 0
	}
	issue := s.slotCycle
	if ready > issue {
		issue = ready
		s.slotCycle = ready
		s.slotUsed = 0
	}
	s.slotUsed++

	done := issue + refLatency(in.Op)
	if d := in.Def(); d != isa.Zero {
		s.regReady[d] = done
		s.regWriter[d] = s.taskIdx
	}
	if done > s.complete {
		s.complete = done
	}

	if in.Op == isa.Br && !ev.EndsTask {
		idx := uint32(ev.PC) & (1<<uint(s.cfg.BimodalBits) - 1)
		ctr := &s.bimodal[s.curUnit][idx]
		predTaken := *ctr >= 2
		if predTaken != ev.Taken {
			s.res.IntraMispredicts++
			s.slotCycle = issue + uint64(s.cfg.BranchPenalty)
			s.slotUsed = 0
		}
		if ev.Taken {
			if *ctr < 3 {
				*ctr++
			}
		} else if *ctr > 0 {
			*ctr--
		}
	}

	if !ev.EndsTask {
		return
	}

	commit := s.complete
	if commit <= s.prevCommit {
		commit = s.prevCommit + 1
	}
	s.unitFree[s.curUnit] = commit
	s.prevCommit = commit
	s.res.Tasks++

	if ev.Exit >= 0 {
		task := s.graph.TaskAt(s.curTask)
		correct := true
		rolledBack := false
		if s.sess != nil {
			before := s.sess.Rollbacks()
			p := s.sess.Step(task, core.Outcome{Exit: ev.Exit, Target: ev.Target})
			correct = p.Target == ev.Target
			rolledBack = s.sess.Rollbacks() > before
		} else if s.pred != nil {
			p := s.pred.Predict(task)
			correct = p.Target == ev.Target
			s.pred.Update(task, core.Outcome{Exit: ev.Exit, Target: ev.Target})
		}
		if !correct {
			s.res.TaskMispredicts++
			s.dispatch = commit + uint64(s.cfg.RestartPenalty)
		}
		if rolledBack && s.cfg.RepairLatency > 0 {
			s.dispatch += uint64(s.cfg.RepairLatency)
			s.res.RepairCycles += uint64(s.cfg.RepairLatency)
		}
	}
	s.taskIdx++
	s.started = false
}
