package core

import (
	"multiscalar/internal/isa"
	"multiscalar/internal/trace"
)

// Block-wise replay kernels over the columnar trace encoding. Each
// kernel consumes a trace.BlockSource — the in-memory cursor of a
// trace.Columnar, a trace.Reader over an on-disk stream, or the workload
// package's streaming generator — and replays one block of flat columns
// at a time: bounds checks amortize over the block, per-step task
// resolution is a dictionary index instead of a map lookup, and nothing
// beyond the current block is ever resident.
//
// The kernels issue exactly the same predictor call sequence as the
// resolved and unresolved replay loops in eval.go, so all three paths
// produce identical results (enforced by TestReplayEquivalence over
// every workload × spec cell). Predictors that additionally implement
// the *BlockReplayer interfaces replay whole blocks through a single
// devirtualized call — the interface-dispatch-per-step floor that
// bounded PR 5's fast path is paid once per 4096 steps instead.

// ExitBlockReplayer is implemented by exit predictors that can replay a
// whole block themselves. ReplayExitBlock must issue the same
// PredictExit/UpdateExit sequence as the generic loop and return the
// prediction-step and miss counts for the block.
type ExitBlockReplayer interface {
	ReplayExitBlock(b *trace.Block) (steps, misses int)
}

// TargetBlockReplayer is the block fast path for target buffers
// (Lookup/Train on indirect steps, Advance on every step).
type TargetBlockReplayer interface {
	ReplayTargetBlock(b *trace.Block) (steps, misses int)
}

// TaskBlockReplayer is the block fast path for full task predictors.
// ByKind accounting accumulates into the caller's fixed array.
type TaskBlockReplayer interface {
	ReplayTaskBlock(b *trace.Block, byKind *[isa.NumControlKinds]KindMisses) (steps, exitMisses, misses int)
}

// EvaluateExitBlocks replays a block source through an exit predictor.
// It is EvaluateExitResolved over columns: same Reset-first contract,
// same call sequence, same result.
func EvaluateExitBlocks(src trace.BlockSource, p ExitPredictor) (ExitResult, error) {
	p.Reset()
	res := ExitResult{Name: p.Name()}
	steps, misses := 0, 0
	fast, isFast := p.(ExitBlockReplayer)
	for {
		b, err := src.NextBlock()
		if err != nil {
			return res, err
		}
		if b == nil {
			break
		}
		if isFast {
			s, m := fast.ReplayExitBlock(b)
			steps += s
			misses += m
			continue
		}
		entries := b.Dict.Entries
		taskIdx, exits := b.TaskIdx, b.Exits
		for i := 0; i < b.N; i++ {
			e := exits[i]
			if e == trace.HaltExit {
				continue
			}
			t := entries[taskIdx[i]].Task
			pred := p.PredictExit(t)
			steps++
			if pred != int(e) {
				misses++
			}
			p.UpdateExit(t, int(e))
		}
	}
	res.Steps, res.Misses = steps, misses
	res.States = p.States()
	recordExitResult(res)
	return res, nil
}

// EvaluateIndirectBlocks replays a block source through a target buffer:
// Lookup/Train on steps whose taken exit is indirect, Advance on every
// step (halt steps included — exactly the EvaluateIndirectResolved
// sequence).
func EvaluateIndirectBlocks(src trace.BlockSource, b TargetBuffer) (TargetResult, error) {
	b.Reset()
	res := TargetResult{Name: b.Name()}
	steps, misses := 0, 0
	fast, isFast := b.(TargetBlockReplayer)
	for {
		blk, err := src.NextBlock()
		if err != nil {
			return res, err
		}
		if blk == nil {
			break
		}
		if isFast {
			s, m := fast.ReplayTargetBlock(blk)
			steps += s
			misses += m
			continue
		}
		entries := blk.Dict.Entries
		taskIdx, exits, targetIdx := blk.TaskIdx, blk.Exits, blk.TargetIdx
		for i := 0; i < blk.N; i++ {
			ent := &entries[taskIdx[i]]
			if e := exits[i]; e != trace.HaltExit && ent.Indirect[e] {
				target := entries[targetIdx[i]].Addr
				steps++
				if got, ok := b.Lookup(ent.Addr); !ok || got != target {
					misses++
				}
				b.Train(ent.Addr, target)
			}
			b.Advance(ent.Addr)
		}
	}
	res.Steps, res.Misses = steps, misses
	res.States = b.States()
	recordTargetResult(res)
	return res, nil
}

// EvaluateTaskBlocks replays a block source through a full task
// predictor, with the per-kind accounting accumulating into a fixed
// array exactly as EvaluateTaskResolved does.
func EvaluateTaskBlocks(src trace.BlockSource, p TaskPredictor) (TaskResult, error) {
	p.Reset()
	res := TaskResult{Name: p.Name()}
	var byKind [isa.NumControlKinds]KindMisses
	steps, exitMisses, misses := 0, 0, 0
	fast, isFast := p.(TaskBlockReplayer)
	for {
		b, err := src.NextBlock()
		if err != nil {
			return res, err
		}
		if b == nil {
			break
		}
		var s, em, m int
		if isFast {
			s, em, m = fast.ReplayTaskBlock(b, &byKind)
		} else {
			s, em, m = replayTaskBlock(b, p, &byKind)
		}
		steps += s
		exitMisses += em
		misses += m
	}
	res.Steps, res.ExitMisses, res.Misses = steps, exitMisses, misses
	res.ByKind = make(map[isa.ControlKind]KindMisses)
	for k := range byKind {
		if byKind[k].Steps > 0 {
			res.ByKind[isa.ControlKind(k)] = byKind[k]
		}
	}
	recordTaskResult(res)
	return res, nil
}

// replayTaskBlock is the generic task-replay loop over one block: one
// Predict and one Update per prediction step.
func replayTaskBlock(b *trace.Block, p TaskPredictor, byKind *[isa.NumControlKinds]KindMisses) (steps, exitMisses, misses int) {
	entries := b.Dict.Entries
	taskIdx, exits, targetIdx := b.TaskIdx, b.Exits, b.TargetIdx
	for i := 0; i < b.N; i++ {
		e := exits[i]
		if e == trace.HaltExit {
			continue
		}
		ent := &entries[taskIdx[i]]
		target := entries[targetIdx[i]].Addr
		pred := p.Predict(ent.Task)
		steps++
		km := &byKind[ent.Kinds[e]]
		km.Steps++
		if pred.Exit >= 0 && pred.Exit != int(e) {
			exitMisses++
		}
		if pred.Target != target {
			misses++
			km.Misses++
		}
		p.Update(ent.Task, Outcome{Exit: int(e), Target: target})
	}
	return steps, exitMisses, misses
}

// ReplayExitBlock implements ExitBlockReplayer for the real PATH
// predictor: the block loop inlines PredictExit/UpdateExit (same
// automaton, history and pending-train sequence — single-exit skip,
// clamping and training latency included) with the task header fields
// read from the block dictionary instead of chased through *tfg.Task,
// and one DOLC index and PHT read shared by prediction and training.
func (p *PathExit) ReplayExitBlock(blk *trace.Block) (steps, misses int) {
	entries := blk.Dict.Entries
	taskIdx, exits := blk.TaskIdx, blk.Exits
	init := p.kind.initState()
	for i := 0; i < blk.N; i++ {
		e := exits[i]
		if e == trace.HaltExit {
			continue
		}
		ent := &entries[taskIdx[i]]
		single := ent.NumExits == 1
		steps++
		if p.opts.SkipSingleExit && single {
			// PredictExit returns 0; exit 0 is the only valid exit, so
			// this step cannot miss. No PHT access, as in UpdateExit.
			if e != 0 {
				misses++
			}
		} else {
			idx := p.path.index(ent.Addr)
			s := p.pht.at(idx, init)
			if clampExitN(p.kind.predictState(s, &p.rng), int(ent.NumExits)) != int(e) {
				misses++
			}
			if p.opts.TrainLatency == 0 {
				p.pht.words[idx] = p.kind.updateState(s, int(e))
			} else {
				p.pendPush(idx, int(e))
			}
		}
		if !(p.opts.SkipSingleExitHistory && single) {
			p.path.push(ent.Addr)
		}
	}
	return steps, misses
}

// ReplayExitBlock implements ExitBlockReplayer for the real GLOBAL
// predictor: one index and one PHT read per step, shared by prediction
// and training.
func (p *GlobalExit) ReplayExitBlock(blk *trace.Block) (steps, misses int) {
	entries := blk.Dict.Entries
	taskIdx, exits := blk.TaskIdx, blk.Exits
	init := p.kind.initState()
	for i := 0; i < blk.N; i++ {
		e := exits[i]
		if e == trace.HaltExit {
			continue
		}
		ent := &entries[taskIdx[i]]
		steps++
		idx := p.index(ent.Addr)
		s := p.pht.at(idx, init)
		if clampExitN(p.kind.predictState(s, &p.rng), int(ent.NumExits)) != int(e) {
			misses++
		}
		p.pht.words[idx] = p.kind.updateState(s, int(e))
		p.hist = p.hist.Push(int(e), p.depth)
	}
	return steps, misses
}

// ReplayExitBlock implements ExitBlockReplayer for the real PER
// predictor, fused like GlobalExit's.
func (p *PerExit) ReplayExitBlock(blk *trace.Block) (steps, misses int) {
	entries := blk.Dict.Entries
	taskIdx, exits := blk.TaskIdx, blk.Exits
	init := p.kind.initState()
	for i := 0; i < blk.N; i++ {
		e := exits[i]
		if e == trace.HaltExit {
			continue
		}
		ent := &entries[taskIdx[i]]
		steps++
		h := p.hrtIndex(ent.Addr)
		idx := p.phtIndex(ent.Addr, p.hrt[h])
		s := p.pht.at(idx, init)
		if clampExitN(p.kind.predictState(s, &p.rng), int(ent.NumExits)) != int(e) {
			misses++
		}
		p.pht.words[idx] = p.kind.updateState(s, int(e))
		p.hrt[h] = p.hrt[h].Push(int(e), p.depth)
	}
	return steps, misses
}
