package core

import (
	"fmt"

	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
)

// Options for real (table-backed) exit predictors.
type PathExitOptions struct {
	// SkipSingleExit enables the paper's §6.1 optimization: tasks with a
	// single exit are always predicted without consulting the PHT and do
	// not update it, reducing aliasing pressure. On by default in the
	// composed predictors; exposed here for the ablation study.
	SkipSingleExit bool
	// SkipSingleExitHistory additionally keeps single-exit tasks out of
	// the path history register. The paper is silent on this; the default
	// (false) records every task in the path.
	SkipSingleExitHistory bool
	// TrainLatency delays automaton training by this many task steps
	// while the path history still advances speculatively at prediction
	// time — the realistic model of the paper's §3.1 "Update Timing"
	// caveat (outcomes return from the execution ring several tasks
	// late; the sequencer's history register does not wait for them).
	// Zero reproduces the paper's idealized immediate update.
	TrainLatency int
	// Seed seeds the tie-break RNG for voting-counter automata.
	Seed uint32
}

// PathExit is the real implementation of the PATH scheme (§6): a pattern
// history table of automata indexed by the DOLC fold of the path history
// and current task address.
type PathExit struct {
	name string // built once: replay calls Name every run
	kind AutomatonKind
	opts PathExitOptions
	rng  rng

	path dolcPath
	pht  flatPHT
	undo undoRing

	// Pending automaton updates when TrainLatency > 0, kept in a
	// fixed-size ring (head index + live count) so a full FIFO costs
	// O(1) per step. The PHT index is captured at update time (before
	// further history pushes), exactly as hardware tags an in-flight
	// task with its prediction context.
	pending  []pendingTrain
	pendHead int
	pendN    int
}

type pendingTrain struct {
	idx  uint32
	exit int8
}

// NewPathExit builds a real path-based exit predictor with the given DOLC
// index configuration and automaton kind.
func NewPathExit(d DOLC, kind AutomatonKind, opts PathExitOptions) (*PathExit, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if opts.TrainLatency < 0 {
		return nil, fmt.Errorf("core: negative TrainLatency %d", opts.TrainLatency)
	}
	p := &PathExit{
		name: fmt.Sprintf("PATH-real(%v,%s)", d, kind.Name()),
		kind: kind,
		opts: opts,
		rng:  newRNG(opts.Seed + 0x5f0d),
		path: newDolcPath(d, true),
		pht:  newFlatPHT(d.TableSize()),
	}
	if opts.TrainLatency > 0 {
		p.pending = make([]pendingTrain, opts.TrainLatency+1)
	}
	return p, nil
}

// MustPathExit is NewPathExit for statically-known configurations. It
// panics iff the configuration fails validation (see the panic contract
// on MustDOLC); runtime-provided configurations must use NewPathExit.
func MustPathExit(d DOLC, kind AutomatonKind, opts PathExitOptions) *PathExit {
	p, err := NewPathExit(d, kind, opts)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements ExitPredictor.
func (p *PathExit) Name() string { return p.name }

// DOLC returns the predictor's index configuration.
func (p *PathExit) DOLC() DOLC { return p.path.dolc }

// SizeBits returns the PHT storage in bits (entries × automaton width).
func (p *PathExit) SizeBits() int { return p.path.dolc.TableSize() * p.kind.Bits }

// States implements ExitPredictor: the number of distinct PHT entries
// touched (Figure 11's "real implementation" series).
func (p *PathExit) States() int { return p.pht.n }

// Reset implements ExitPredictor.
func (p *PathExit) Reset() {
	p.path.reset()
	p.pht.reset()
	p.pendHead, p.pendN = 0, 0
	p.undo.reset()
	p.rng.seed(p.opts.Seed + 0x5f0d)
}

// specErr reports why this predictor cannot run under speculative
// update: the TrainLatency FIFO is itself an update-timing model and
// composing it under checkpoint repair would double-count the lag (the
// session's resolution window is the lag model in spec mode).
func (p *PathExit) specErr() error {
	if p.opts.TrainLatency > 0 {
		return fmt.Errorf("core: %s: TrainLatency %d cannot combine with speculative update (the session's resolution lag models update timing)", p.Name(), p.opts.TrainLatency)
	}
	return nil
}

// PredictExit implements ExitPredictor.
func (p *PathExit) PredictExit(t *tfg.Task) int {
	if p.opts.SkipSingleExit && t.SingleExit() {
		return 0
	}
	s := p.pht.at(p.path.index(t.Start), p.kind.initState())
	return clampExit(p.kind.predictState(s, &p.rng), t)
}

// UpdateExit implements ExitPredictor.
func (p *PathExit) UpdateExit(t *tfg.Task, exit int) { p.updateExit(t, exit, nil) }

// train trains PHT entry idx with the actual exit.
func (p *PathExit) train(idx uint32, exit int) {
	p.pht.words[idx] = p.kind.updateState(p.pht.at(idx, p.kind.initState()), exit)
}

// pendPush enqueues a delayed automaton update and, once the FIFO holds
// more than TrainLatency entries, trains the oldest — the same order as
// the original shifting FIFO, at O(1) per step.
func (p *PathExit) pendPush(idx uint32, exit int) {
	i := p.pendHead + p.pendN
	if i >= len(p.pending) {
		i -= len(p.pending)
	}
	p.pending[i] = pendingTrain{idx: idx, exit: int8(exit)}
	p.pendN++
	if p.pendN > p.opts.TrainLatency {
		u := p.pending[p.pendHead]
		p.pendHead++
		if p.pendHead == len(p.pending) {
			p.pendHead = 0
		}
		p.pendN--
		p.train(u.idx, int(u.exit))
	}
}

// updateExit is the single training path for both idealized and
// speculative update: with a nil log it is the paper's immediate update;
// with a log every mutation records its inverse for checkpoint repair.
func (p *PathExit) updateExit(t *tfg.Task, exit int, log *undoRing) {
	single := t.SingleExit()
	if !(p.opts.SkipSingleExit && single) {
		idx := p.path.index(t.Start)
		if p.opts.TrainLatency > 0 {
			// Capture the context index now; train once the outcome has
			// "travelled back" TrainLatency tasks later. (log is always
			// nil here: specErr refuses TrainLatency under speculation.)
			p.pendPush(idx, exit)
		} else {
			if log != nil {
				p.pht.logUpdate(log, idx, p.kind.initState())
			}
			p.train(idx, exit)
		}
	}
	if !(p.opts.SkipSingleExitHistory && single) {
		if log != nil {
			logPathHist(log, &p.path.hist)
		}
		p.path.push(t.Start)
	}
}

// GlobalExit is a real (table-backed) implementation of the GLOBAL
// scheme, provided as an extension beyond the paper (which only evaluated
// GLOBAL in its ideal form, arguing real PATH already beat ideal GLOBAL).
// The PHT index is the XOR-fold of (exit history ++ current task bits).
type GlobalExit struct {
	depth     int
	current   int // bits of the current task address
	indexBits int
	kind      AutomatonKind
	rng       rng

	hist ExitHistory
	pht  flatPHT
	undo undoRing
}

// NewGlobalExit builds a real GLOBAL exit predictor: depth 2-bit exit
// steps of global history concatenated with currentBits of the task
// address, folded to indexBits.
func NewGlobalExit(depth, currentBits, indexBits int, kind AutomatonKind) (*GlobalExit, error) {
	if depth < 0 || depth > MaxHistoryDepth {
		return nil, fmt.Errorf("core: GlobalExit depth %d out of range", depth)
	}
	if indexBits <= 0 || indexBits > 30 {
		return nil, fmt.Errorf("core: GlobalExit index bits %d out of range", indexBits)
	}
	return &GlobalExit{
		depth: depth, current: currentBits, indexBits: indexBits,
		kind: kind, rng: newRNG(11),
		pht: newFlatPHT(1 << uint(indexBits)),
	}, nil
}

// Name implements ExitPredictor.
func (p *GlobalExit) Name() string {
	return fmt.Sprintf("GLOBAL-real(d=%d,c=%d,i=%d,%s)", p.depth, p.current, p.indexBits, p.kind.Name())
}

// States implements ExitPredictor.
func (p *GlobalExit) States() int { return p.pht.n }

// Reset implements ExitPredictor.
func (p *GlobalExit) Reset() {
	p.hist = 0
	p.pht.reset()
	p.undo.reset()
	p.rng.seed(11)
}

func (p *GlobalExit) index(addr isa.Addr) uint32 {
	v := uint64(p.hist)<<uint(p.current) | uint64(addr)&(1<<uint(p.current)-1)
	mask := uint64(1)<<uint(p.indexBits) - 1
	folded := uint64(0)
	for v != 0 {
		folded ^= v & mask
		v >>= uint(p.indexBits)
	}
	return uint32(folded)
}

// PredictExit implements ExitPredictor.
func (p *GlobalExit) PredictExit(t *tfg.Task) int {
	s := p.pht.at(p.index(t.Start), p.kind.initState())
	return clampExit(p.kind.predictState(s, &p.rng), t)
}

// UpdateExit implements ExitPredictor.
func (p *GlobalExit) UpdateExit(t *tfg.Task, exit int) { p.updateExit(t, exit, nil) }

func (p *GlobalExit) updateExit(t *tfg.Task, exit int, log *undoRing) {
	idx := p.index(t.Start)
	init := p.kind.initState()
	if log != nil {
		p.pht.logUpdate(log, idx, init)
		log.push(specUndo{kind: undoExitHist, prev: uint64(p.hist)})
	}
	p.pht.words[idx] = p.kind.updateState(p.pht.at(idx, init), exit)
	p.hist = p.hist.Push(exit, p.depth)
}

// PerExit is a real (table-backed) implementation of the PER scheme,
// likewise an extension beyond the paper: a history register table (HRT)
// indexed by task address bits, and a PHT indexed by (task bits ++ that
// task's history), folded.
type PerExit struct {
	depth     int
	hrtBits   int
	taskBits  int // task address bits mixed into the PHT index
	indexBits int
	kind      AutomatonKind
	rng       rng

	hrt  []ExitHistory
	pht  flatPHT
	undo undoRing
}

// NewPerExit builds a real PER exit predictor.
func NewPerExit(depth, hrtBits, taskBits, indexBits int, kind AutomatonKind) (*PerExit, error) {
	if depth < 0 || depth > MaxHistoryDepth {
		return nil, fmt.Errorf("core: PerExit depth %d out of range", depth)
	}
	if indexBits <= 0 || indexBits > 30 || hrtBits <= 0 || hrtBits > 24 {
		return nil, fmt.Errorf("core: PerExit table sizes out of range")
	}
	return &PerExit{
		depth: depth, hrtBits: hrtBits, taskBits: taskBits, indexBits: indexBits,
		kind: kind, rng: newRNG(13),
		hrt: make([]ExitHistory, 1<<uint(hrtBits)),
		pht: newFlatPHT(1 << uint(indexBits)),
	}, nil
}

// Name implements ExitPredictor.
func (p *PerExit) Name() string {
	return fmt.Sprintf("PER-real(d=%d,h=%d,i=%d,%s)", p.depth, p.hrtBits, p.indexBits, p.kind.Name())
}

// States implements ExitPredictor.
func (p *PerExit) States() int { return p.pht.n }

// Reset implements ExitPredictor.
func (p *PerExit) Reset() {
	clear(p.hrt)
	p.pht.reset()
	p.undo.reset()
	p.rng.seed(13)
}

func (p *PerExit) hrtIndex(addr isa.Addr) uint32 {
	return uint32(addr) & (1<<uint(p.hrtBits) - 1)
}

func (p *PerExit) phtIndex(addr isa.Addr, hist ExitHistory) uint32 {
	v := uint64(addr)&(1<<uint(p.taskBits)-1)<<(2*uint(p.depth)) | uint64(hist)
	mask := uint64(1)<<uint(p.indexBits) - 1
	folded := uint64(0)
	for v != 0 {
		folded ^= v & mask
		v >>= uint(p.indexBits)
	}
	return uint32(folded)
}

// PredictExit implements ExitPredictor.
func (p *PerExit) PredictExit(t *tfg.Task) int {
	s := p.pht.at(p.phtIndex(t.Start, p.hrt[p.hrtIndex(t.Start)]), p.kind.initState())
	return clampExit(p.kind.predictState(s, &p.rng), t)
}

// UpdateExit implements ExitPredictor.
func (p *PerExit) UpdateExit(t *tfg.Task, exit int) { p.updateExit(t, exit, nil) }

func (p *PerExit) updateExit(t *tfg.Task, exit int, log *undoRing) {
	h := p.hrtIndex(t.Start)
	idx := p.phtIndex(t.Start, p.hrt[h])
	init := p.kind.initState()
	if log != nil {
		p.pht.logUpdate(log, idx, init)
		log.push(specUndo{kind: undoHRT, idx: h, prev: uint64(p.hrt[h])})
	}
	p.pht.words[idx] = p.kind.updateState(p.pht.at(idx, init), exit)
	p.hrt[h] = p.hrt[h].Push(exit, p.depth)
}
