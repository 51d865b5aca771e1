package timing

import (
	"fmt"

	"multiscalar/internal/core"
	"multiscalar/internal/isa"
	"multiscalar/internal/sim/taskpath"
)

// Replay runs the ring model over a recorded task stream with the given
// inter-task predictor (nil = perfect prediction). cfg.MaxSteps, when
// positive and shorter than the recording, replays only that prefix.
// The predictor is Reset first, so one predictor can be replayed many
// times.
func Replay(p *Paths, pred core.TaskPredictor, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if pred != nil {
		pred.Reset()
	}
	var sess *core.SpecTaskSession
	if cfg.SpecUpdate && pred != nil {
		var err error
		if sess, err = core.NewSpecTaskSession(pred, cfg.SpecLag); err != nil {
			return Result{}, fmt.Errorf("timing: %w", err)
		}
	}
	if cfg.MaxSteps > 0 {
		p = p.Prefix(cfg.MaxSteps)
	}

	var (
		res        Result
		regReady   [256]uint64 // indexed by isa.Reg: no bounds checks
		regWriter  [256]int
		dispatch   uint64 // earliest cycle the sequencer can dispatch the next task
		prevCommit uint64
	)
	units := cfg.Units
	unitFree := make([]uint64, units)
	bimBits := uint(cfg.BimodalBits)
	bimMask := uint32(1)<<bimBits - 1
	bimodal := make([]uint8, units<<bimBits)
	for i := range bimodal {
		bimodal[i] = 2 // weakly taken, so loops start reasonably
	}
	width := cfg.IssueWidth
	fwd := uint64(cfg.ForwardLatency)
	branchPenalty := uint64(cfg.BranchPenalty)
	restartPenalty := uint64(cfg.RestartPenalty)
	repairLatency := uint64(cfg.RepairLatency)
	ids := p.IDs()

	for base := 0; base < len(ids); base += progressChunk {
		end := min(base+progressChunk, len(ids))
		for i := base; i < end; i++ {
			id := ids[i]
			unit := i % units
			t := dispatch
			if f := unitFree[unit]; f > t {
				t = f
			}
			dispatch = t + 1 // the sequencer predicts/dispatches one task per cycle
			slotCycle, slotUsed, complete := t, 0, t
			bim := bimodal[unit<<bimBits : (unit+1)<<bimBits]
			path := p.Path(id)
			res.Instrs += uint64(len(path))

			for k := range path {
				in := &path[k]
				// Operand readiness through the scoreboard.
				ready := slotCycle
				if r := in.Use0; r != isa.Zero {
					t := regReady[r]
					if regWriter[r] != i {
						t += fwd
					}
					ready = max(ready, t)
				}
				if r := in.Use1; r != isa.Zero {
					t := regReady[r]
					if regWriter[r] != i {
						t += fwd
					}
					ready = max(ready, t)
				}
				// In-order issue, IssueWidth per cycle.
				if slotUsed >= width {
					slotCycle++
					slotUsed = 0
				}
				issue := slotCycle
				if ready > issue {
					issue = ready
					slotCycle = ready
					slotUsed = 0
				}
				slotUsed++

				done := issue + uint64(latencies[in.Op])
				if d := in.Def; d != isa.Zero {
					regReady[d] = done
					regWriter[d] = i
				}
				complete = max(complete, done)

				// Intra-task branch prediction (per-unit bimodal).
				if in.Flags&taskpath.IntraBranch != 0 {
					ctr := &bim[uint32(in.PC)&bimMask]
					taken := in.Flags&taskpath.Taken != 0
					if (*ctr >= 2) != taken {
						res.IntraMispredicts++
						slotCycle = issue + branchPenalty
						slotUsed = 0
					}
					if taken {
						if *ctr < 3 {
							*ctr++
						}
					} else if *ctr > 0 {
						*ctr--
					}
				}
			}

			// Task boundary: commit in FIFO order, then score the
			// inter-task prediction that dispatched our successor.
			commit := complete
			if commit <= prevCommit {
				commit = prevCommit + 1
			}
			unitFree[unit] = commit
			prevCommit = commit
			res.Tasks++

			exit := p.Exit(id)
			if exit < 0 {
				continue
			}
			target := p.Target(i)
			task := p.Task(id)
			correct := true
			rolledBack := false
			if sess != nil {
				// Speculative-update mode: the session trains the
				// predicted outcome at prediction time and repairs on
				// resolution; a rollback here is a predictor-state
				// repair, charged below on top of whatever restart
				// bubble the mispredict itself costs.
				before := sess.Rollbacks()
				pr := sess.Step(task, core.Outcome{Exit: exit, Target: target})
				correct = pr.Target == target
				rolledBack = sess.Rollbacks() > before
			} else if pred != nil {
				pr := pred.Predict(task)
				correct = pr.Target == target
				pred.Update(task, core.Outcome{Exit: exit, Target: target})
			}
			if !correct {
				res.TaskMispredicts++
				// Squash: younger speculative work is discarded;
				// dispatch resumes after this task commits, plus a
				// restart penalty.
				dispatch = commit + restartPenalty
			}
			if rolledBack && repairLatency > 0 {
				// The repair drain occupies the prediction structures:
				// the sequencer cannot dispatch (or re-dispatch after a
				// squash) until it completes.
				dispatch += repairLatency
				res.RepairCycles += repairLatency
			}
		}
		if cfg.Progress != nil {
			cfg.Progress(end - base)
		}
	}
	if sess != nil {
		sess.Finish()
		res.Rollbacks = sess.Rollbacks()
	}
	res.Cycles = prevCommit
	return res, nil
}

// latencies maps each opcode to its execution latency in cycles.
var latencies = func() (t [256]uint8) {
	for i := range t {
		t[i] = 1
	}
	t[isa.Mul], t[isa.MulI] = 3, 3
	t[isa.Div], t[isa.Rem] = 8, 8
	t[isa.Lw] = 2
	return t
}()
