package core

import (
	"fmt"

	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
)

// The ideal predictors implement the paper's alias-free limit study
// (§5.2): "ideal" means no two distinct prediction contexts ever share an
// automaton. Each keeps its contexts in a flat context table (ctxTable)
// under exact keys, with the automaton's packed state in the slot. The
// exit-history schemes key on the full task address plus the history
// register; the PATH scheme keys on 16 bits per path element, which is
// exact for programs of at most 65536 instructions.
//
// Every step costs one table probe on every replay path: the block
// replayers below read the slot once for both prediction and training,
// and the table's last-slot cache turns the UpdateExit that follows a
// PredictExit on the same context into a single key compare.
//
// At depth 0 all three schemes degenerate to one automaton per static
// task ("no correlation is exploited").

// exitCtxKey is the exact context key for the exit-history schemes: the
// current task plus a 2-bit-per-step exit history register (global or
// per-task).
func exitCtxKey(addr isa.Addr, hist ExitHistory) ctxKey {
	return ctxKey{uint64(addr) | uint64(hist)<<32}
}

func checkIdealDepth(name string, depth int) {
	if depth < 0 || depth > MaxHistoryDepth {
		panic(fmt.Sprintf("core: %s depth %d out of range", name, depth))
	}
}

// IdealGlobal is the ideal GLOBAL scheme: a single exit-number history
// register shared by all tasks, paired with the current task address.
type IdealGlobal struct {
	depth int
	kind  AutomatonKind
	rng   rng
	hist  ExitHistory
	table ctxTable
	undo  undoRing
}

// NewIdealGlobal returns an alias-free GLOBAL exit predictor of the given
// history depth using the given automaton kind. Like every ideal
// constructor it panics on a depth outside [0, MaxHistoryDepth]: ideal
// predictors serve the limit studies, whose depths are compile-time
// constants, so an out-of-range depth is a programming error (see the
// panic contract on MustDOLC).
func NewIdealGlobal(depth int, kind AutomatonKind) *IdealGlobal {
	checkIdealDepth("IdealGlobal", depth)
	return &IdealGlobal{depth: depth, kind: kind, rng: newRNG(1), table: newCtxTable()}
}

// Name implements ExitPredictor.
func (p *IdealGlobal) Name() string {
	return fmt.Sprintf("GLOBAL-ideal(d=%d,%s)", p.depth, p.kind.Name())
}

// States implements ExitPredictor.
func (p *IdealGlobal) States() int { return p.table.len() }

// Reset implements ExitPredictor.
func (p *IdealGlobal) Reset() {
	p.hist = 0
	p.table.reset()
	p.undo.reset()
	p.rng.seed(1)
}

// PredictExit implements ExitPredictor.
func (p *IdealGlobal) PredictExit(t *tfg.Task) int {
	k := exitCtxKey(t.Start, p.hist)
	i, _ := p.table.upsert(&k, p.kind.initState())
	return clampExit(p.kind.predictState(p.table.state(i), &p.rng), t)
}

// UpdateExit implements ExitPredictor.
func (p *IdealGlobal) UpdateExit(t *tfg.Task, exit int) { p.updateExit(t, exit, nil) }

func (p *IdealGlobal) updateExit(t *tfg.Task, exit int, log *undoRing) {
	k := exitCtxKey(t.Start, p.hist)
	i, created := p.table.upsert(&k, p.kind.initState())
	if log != nil {
		p.table.logUpdate(log, &k, i, created)
		log.push(specUndo{kind: undoExitHist, prev: uint64(p.hist)})
	}
	p.table.setState(i, p.kind.updateState(p.table.state(i), exit))
	p.hist = p.hist.Push(exit, p.depth)
}

// ReplayExitBlock implements ExitBlockReplayer: PredictExit and
// UpdateExit fused over one probe per step.
func (p *IdealGlobal) ReplayExitBlock(blk *trace.Block) (steps, misses int) {
	entries := blk.Dict.Entries
	taskIdx, exits := blk.TaskIdx, blk.Exits
	init := p.kind.initState()
	for j := 0; j < blk.N; j++ {
		e := exits[j]
		if e == trace.HaltExit {
			continue
		}
		ent := &entries[taskIdx[j]]
		k := exitCtxKey(ent.Addr, p.hist)
		i, _ := p.table.upsert(&k, init)
		s := p.table.state(i)
		steps++
		if clampExitN(p.kind.predictState(s, &p.rng), int(ent.NumExits)) != int(e) {
			misses++
		}
		p.table.setState(i, p.kind.updateState(s, int(e)))
		p.hist = p.hist.Push(int(e), p.depth)
	}
	return steps, misses
}

// IdealPer is the ideal PER scheme (the paper's analogue of Yeh & Patt's
// PAp): one exit-history register and one table of automata per static
// task, with no aliasing anywhere. The history registers live in a
// second context table keyed by task address; an absent register reads
// as zero.
type IdealPer struct {
	depth int
	kind  AutomatonKind
	rng   rng
	hists ctxTable
	table ctxTable
	undo  undoRing
}

// NewIdealPer returns an alias-free PER exit predictor. It panics on a
// depth outside [0, MaxHistoryDepth]; see NewIdealGlobal.
func NewIdealPer(depth int, kind AutomatonKind) *IdealPer {
	checkIdealDepth("IdealPer", depth)
	return &IdealPer{depth: depth, kind: kind, rng: newRNG(2), hists: newCtxTable(), table: newCtxTable()}
}

// Name implements ExitPredictor.
func (p *IdealPer) Name() string { return fmt.Sprintf("PER-ideal(d=%d,%s)", p.depth, p.kind.Name()) }

// States implements ExitPredictor.
func (p *IdealPer) States() int { return p.table.len() }

// Reset implements ExitPredictor.
func (p *IdealPer) Reset() {
	p.hists.reset()
	p.table.reset()
	p.undo.reset()
	p.rng.seed(2)
}

// hist returns addr's history register.
func (p *IdealPer) hist(addr isa.Addr) ExitHistory {
	k := ctxKey{uint64(addr)}
	if i, ok := p.hists.probe(&k); ok {
		return ExitHistory(p.hists.state(i))
	}
	return 0
}

// setHist writes addr's history register.
func (p *IdealPer) setHist(addr isa.Addr, h ExitHistory) {
	k := ctxKey{uint64(addr)}
	i, _ := p.hists.upsert(&k, 0)
	p.hists.setState(i, uint64(h))
}

// PredictExit implements ExitPredictor.
func (p *IdealPer) PredictExit(t *tfg.Task) int {
	k := exitCtxKey(t.Start, p.hist(t.Start))
	i, _ := p.table.upsert(&k, p.kind.initState())
	return clampExit(p.kind.predictState(p.table.state(i), &p.rng), t)
}

// UpdateExit implements ExitPredictor.
func (p *IdealPer) UpdateExit(t *tfg.Task, exit int) { p.updateExit(t, exit, nil) }

func (p *IdealPer) updateExit(t *tfg.Task, exit int, log *undoRing) {
	h := p.hist(t.Start)
	k := exitCtxKey(t.Start, h)
	i, created := p.table.upsert(&k, p.kind.initState())
	if log != nil {
		p.table.logUpdate(log, &k, i, created)
		log.push(specUndo{kind: undoPerHist, addr: t.Start, prev: uint64(h)})
	}
	p.table.setState(i, p.kind.updateState(p.table.state(i), exit))
	p.setHist(t.Start, h.Push(exit, p.depth))
}

// ReplayExitBlock implements ExitBlockReplayer: one history probe and
// one context probe per step.
func (p *IdealPer) ReplayExitBlock(blk *trace.Block) (steps, misses int) {
	entries := blk.Dict.Entries
	taskIdx, exits := blk.TaskIdx, blk.Exits
	init := p.kind.initState()
	for j := 0; j < blk.N; j++ {
		e := exits[j]
		if e == trace.HaltExit {
			continue
		}
		ent := &entries[taskIdx[j]]
		hk := ctxKey{uint64(ent.Addr)}
		hi, _ := p.hists.upsert(&hk, 0)
		h := ExitHistory(p.hists.state(hi))
		k := exitCtxKey(ent.Addr, h)
		i, _ := p.table.upsert(&k, init)
		s := p.table.state(i)
		steps++
		if clampExitN(p.kind.predictState(s, &p.rng), int(ent.NumExits)) != int(e) {
			misses++
		}
		p.table.setState(i, p.kind.updateState(s, int(e)))
		p.hists.setState(hi, uint64(h.Push(int(e), p.depth)))
	}
	return steps, misses
}

// IdealPath is the ideal PATH scheme: the prediction context is the exact
// sequence of the depth most recent task start addresses plus the current
// task — unique path identification with no aliasing.
type IdealPath struct {
	depth int
	kind  AutomatonKind
	rng   rng
	reg   pathReg
	table ctxTable
	undo  undoRing
}

// NewIdealPath returns an alias-free PATH exit predictor. It panics on a
// depth outside [0, MaxHistoryDepth]; see NewIdealGlobal.
func NewIdealPath(depth int, kind AutomatonKind) *IdealPath {
	checkIdealDepth("IdealPath", depth)
	return &IdealPath{depth: depth, kind: kind, rng: newRNG(3), reg: newPathReg(depth), table: newCtxTable()}
}

// Name implements ExitPredictor.
func (p *IdealPath) Name() string { return fmt.Sprintf("PATH-ideal(d=%d,%s)", p.depth, p.kind.Name()) }

// States implements ExitPredictor.
func (p *IdealPath) States() int { return p.table.len() }

// Reset implements ExitPredictor.
func (p *IdealPath) Reset() {
	p.reg.reset()
	p.table.reset()
	p.undo.reset()
	p.rng.seed(3)
}

// PredictExit implements ExitPredictor.
func (p *IdealPath) PredictExit(t *tfg.Task) int {
	k := p.reg.key(t.Start)
	i, _ := p.table.upsert(&k, p.kind.initState())
	return clampExit(p.kind.predictState(p.table.state(i), &p.rng), t)
}

// UpdateExit implements ExitPredictor.
func (p *IdealPath) UpdateExit(t *tfg.Task, exit int) { p.updateExit(t, exit, nil) }

func (p *IdealPath) updateExit(t *tfg.Task, exit int, log *undoRing) {
	k := p.reg.key(t.Start)
	i, created := p.table.upsert(&k, p.kind.initState())
	if log != nil {
		p.table.logUpdate(log, &k, i, created)
		log.push(specUndo{kind: undoPathReg, key: p.reg.w})
	}
	p.table.setState(i, p.kind.updateState(p.table.state(i), exit))
	p.reg.push(t.Start)
}

// ReplayExitBlock implements ExitBlockReplayer: PredictExit and
// UpdateExit fused over one probe per step.
func (p *IdealPath) ReplayExitBlock(blk *trace.Block) (steps, misses int) {
	entries := blk.Dict.Entries
	taskIdx, exits := blk.TaskIdx, blk.Exits
	init := p.kind.initState()
	for j := 0; j < blk.N; j++ {
		e := exits[j]
		if e == trace.HaltExit {
			continue
		}
		ent := &entries[taskIdx[j]]
		k := p.reg.key(ent.Addr)
		i, _ := p.table.upsert(&k, init)
		s := p.table.state(i)
		steps++
		if clampExitN(p.kind.predictState(s, &p.rng), int(ent.NumExits)) != int(e) {
			misses++
		}
		p.table.setState(i, p.kind.updateState(s, int(e)))
		p.reg.push(ent.Addr)
	}
	return steps, misses
}
