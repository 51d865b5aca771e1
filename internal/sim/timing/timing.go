// Package timing models a Multiscalar processor's execution timing — the
// detailed-simulator counterpart to the paper's Table 4.
//
// The model is a commit-order analytic ring simulation. Processing units
// are arranged in a ring and assigned tasks round-robin by the global
// sequencer, which dispatches one (predicted) task per cycle. Within a
// unit, instructions issue in order, cfg.IssueWidth per cycle, stalling
// on operands via a global register scoreboard; values produced by a
// different in-flight task incur a forwarding delay (the register ring of
// the Multiscalar hardware). Intra-task conditional branches are
// predicted by a per-unit bimodal predictor (the paper's stated intra-
// task mechanism), with a fixed penalty per miss. Tasks commit strictly
// in order. When the inter-task predictor mispredicts a task's successor,
// all younger (speculative) work is squashed: the sequencer restarts
// dispatch after the mispredicted task commits, plus a restart penalty.
//
// A run has two steps. Record executes the program once on the
// functional machine and keeps its dynamic task stream as a column of
// path ids into a dictionary of pre-decoded instruction records; the
// stream does not depend on the predictor, so one recording serves every
// predictor and configuration. Replay runs the ring model over a
// recording. Run is Record followed by Replay.
//
// Simplifications, documented in DESIGN.md: memory disambiguation is
// perfect (the ARB is a separate paper), wrong-path execution occupies no
// modelled resources beyond the restart bubble, and functional-unit
// latencies are fixed per opcode class.
package timing

import (
	"multiscalar/internal/core"
	"multiscalar/internal/tfg"
)

// Config parameterizes the ring model. Zero values select the defaults
// used for the Table 4 reproduction (4 units, 2-way, as in the paper's
// "four 2-way OOO processing units").
type Config struct {
	Units          int // processing units in the ring (default 4)
	IssueWidth     int // instructions issued per unit per cycle (default 2)
	BranchPenalty  int // intra-task branch mispredict penalty (default 4)
	RestartPenalty int // cycles from head commit to redirected dispatch (default 8: sequencer redirect plus ring refill startup)
	ForwardLatency int // extra cycles for cross-task register values (default 1)
	BimodalBits    int // log2 entries of each unit's bimodal table (default 10)
	MaxSteps       int // dynamic task budget; 0 = run to halt (Replay: 0 = the whole recording)

	// SpecUpdate trains the inter-task predictor speculatively at
	// prediction time and repairs it through its undo log on every
	// rollback (core.SpecTaskSession) instead of the idealized
	// train-on-commit update. Ignored for the perfect (nil) predictor,
	// which has no state to speculate.
	SpecUpdate bool
	// SpecLag is the speculative session's resolution lag in tasks
	// (SpecUpdate only; 0 resolves each prediction at the next boundary).
	SpecLag int
	// RepairLatency is charged against sequencer dispatch on every
	// predictor rollback (SpecUpdate only), modelling the cycles the
	// repair drain occupies the prediction structures.
	RepairLatency int

	// Progress, when non-nil, is called from Replay with the number of
	// tasks replayed since the previous call, every progressChunk tasks
	// and once for the remainder. It is a side channel for live status
	// only: results are identical with or without it.
	Progress func(tasks int)
}

// progressChunk is the number of replayed tasks between Progress calls.
const progressChunk = 4096

func (c Config) withDefaults() Config {
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

// Result summarizes a timing run.
type Result struct {
	Cycles           uint64
	Instrs           uint64
	Tasks            int
	TaskMispredicts  int
	IntraMispredicts uint64

	// Rollbacks counts predictor-state repairs and RepairCycles the
	// dispatch cycles they cost (speculative-update runs only; both stay
	// zero in idealized mode and under the perfect predictor).
	Rollbacks    int
	RepairCycles uint64
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instrs) / float64(r.Cycles)
}

// TaskMissRate returns the inter-task prediction miss rate observed.
func (r Result) TaskMissRate() float64 {
	if r.Tasks == 0 {
		return 0
	}
	return float64(r.TaskMispredicts) / float64(r.Tasks)
}

// Run executes the program under g with the given inter-task predictor
// and returns timing results: Record for cfg.MaxSteps tasks, then Replay.
// A nil predictor models perfect inter-task prediction (the paper's
// "Perfect" row). Callers that time several predictors over one program
// should record once and replay each.
func Run(g *tfg.Graph, pred core.TaskPredictor, cfg Config) (Result, error) {
	p, err := Record(g, cfg.MaxSteps)
	if err != nil {
		return Result{}, err
	}
	return Replay(p, pred, cfg)
}
