package core

import (
	"fmt"
	"time"

	"multiscalar/internal/isa"
	"multiscalar/internal/obs"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
)

// Speculative update with checkpoint repair — the realistic replacement
// for the paper's §3.1 idealization (immediate, non-speculative predictor
// training). In this mode the sequencer trains its predictors at
// prediction time with the *predicted* outcome, the way the XIOSim fetch
// stage calls spec_update before the branch resolves, and repairs them
// when a misprediction resolves:
//
//	pred := p.PredictExit(t)
//	m := p.MarkExit()          // checkpoint: undo-log position (+ RAS mark)
//	p.SpecUpdateExit(t, pred)  // full update, every mutation undo-logged
//	...                        // outcome resolves up to `lag` tasks later
//	p.CommitExit(m2)           // correct: discard the frame's undo entries
//	p.RepairExit(m)            // wrong: drain the undo log back to the mark
//
// Repair is a bounded drain of an in-place undo log — never a
// re-simulation — so rollback-heavy replay stays allocation-free per
// step. Every logged mutation records the exact prior word of state
// (automaton pack, history register, table entry), and draining newest
// to oldest restores predictor tables precisely to the mark. The only
// speculative effects that survive a repair are allocations performed by
// wrong-path *lookups* (PHT entries and map contexts materialized on
// first touch): hardware tables exist whether or not an index is later
// squashed, so States() in spec mode counts wrong-path pollution too.
// The SpecExitSession / SpecTaskSession drivers below package the whole
// protocol — windowed resolution at a configurable lag, commit, repair,
// and the non-speculative catch-up replay after a squash.

// SpecMark is a predictor checkpoint: an absolute position in the
// predictor's undo log captured by MarkExit/MarkTarget before a
// speculative update.
type SpecMark uint64

// SpecExitPredictor is an exit predictor that supports speculative
// update with checkpoint repair. SpecUpdateExit performs exactly the
// same training as UpdateExit while recording inverse operations;
// RepairExit(m) restores every table, history register and automaton to
// its state when MarkExit returned m; CommitExit(m) discards undo
// entries older than m once the speculation they guard has resolved
// correctly.
type SpecExitPredictor interface {
	ExitPredictor
	SpecUpdateExit(t *tfg.Task, exit int)
	MarkExit() SpecMark
	RepairExit(SpecMark)
	CommitExit(SpecMark)
}

// SpecTargetBuffer is a target buffer that supports speculative
// training with checkpoint repair, mirroring the Train/Advance contract
// of TargetBuffer.
type SpecTargetBuffer interface {
	TargetBuffer
	SpecTrain(current, target isa.Addr)
	SpecAdvance(current isa.Addr)
	MarkTarget() SpecMark
	RepairTarget(SpecMark)
	CommitTarget(SpecMark)
}

// TaskMark is the composed checkpoint of a full task predictor: the
// exit predictor's and target buffer's undo-log marks plus the RAS
// repair point.
type TaskMark struct {
	exit SpecMark
	buf  SpecMark
	ras  RASMark
}

// SpecTaskPredictor is a task predictor that supports speculative
// update with checkpoint repair. RepairTask reports whether the RAS
// repair was inexact (deep wrong-path pushes clobbered live entries the
// mark cannot restore — see RAS.Repair).
type SpecTaskPredictor interface {
	TaskPredictor
	SpecUpdate(t *tfg.Task, p Prediction)
	MarkTask() TaskMark
	RepairTask(TaskMark) bool
	CommitTask(TaskMark)
}

// Undo-log entry kinds. Each predictor interprets its own entries via
// applyUndo; kinds are shared so the ring stays one flat struct type.
const (
	undoAutState  uint8 = iota // pht[idx]: restore packed automaton state
	undoAutCreate              // pht[idx]: entry was allocated by this update — free
	undoPathHist               // PathHistory: restore overwritten slot + head
	undoExitHist               // ExitHistory register: restore prev word
	undoHRT                    // PerExit hrt[idx]: restore prev word
	undoTTBEntry               // CTTB entries[idx]: restore packed entry
	undoCtxState               // ideal context table: restore key's packed state
	undoCtxCreate              // ideal context table: key was created by this update — delete
	undoPathReg                // ideal path register: restore the packed register (key)
	undoPerHist                // IdealPer history table: restore addr's history word
)

// specUndo is one logged inverse operation. prev carries the packed
// prior state (automaton pack, history word, or TTB entry pack); idx,
// addr and key give the entry its location. Ideal-table entries are
// located by their context key, never by slot, because slots move when
// the table grows or deletes. The entry holds no pointers, so the ring
// is invisible to the garbage collector.
type specUndo struct {
	kind uint8
	idx  uint32
	addr isa.Addr
	prev uint64
	key  ctxKey
}

// undoApplier is implemented by every spec-capable predictor: apply one
// inverse operation against the predictor's own tables.
type undoApplier interface {
	applyUndo(e *specUndo)
}

// undoRing is a fixed-capacity ring of undo entries with absolute
// positions: mark() returns base+n, repairTo pops newest→mark applying
// inverses, commitTo drops oldest entries below a mark. It grows by
// doubling only until it covers the largest in-flight window, so
// steady-state speculation pushes and drains without allocating.
type undoRing struct {
	buf  []specUndo
	head int    // index of the oldest entry
	n    int    // live entries
	base uint64 // absolute position of the oldest entry
}

func (r *undoRing) mark() SpecMark { return SpecMark(r.base + uint64(r.n)) }

func (r *undoRing) push(e specUndo) {
	if r.n == len(r.buf) {
		r.grow()
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = e
	r.n++
}

func (r *undoRing) grow() {
	nb := make([]specUndo, max(2*len(r.buf), 64))
	for i := 0; i < r.n; i++ {
		j := r.head + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		nb[i] = r.buf[j]
	}
	r.buf = nb
	r.head = 0
}

// repairTo drains entries newest-first down to mark m, applying each
// inverse through ap.
func (r *undoRing) repairTo(m SpecMark, ap undoApplier) (frames int) {
	keep := int(uint64(m) - r.base)
	drained := r.n - keep
	for r.n > keep {
		i := r.head + r.n - 1
		if i >= len(r.buf) {
			i -= len(r.buf)
		}
		ap.applyUndo(&r.buf[i])
		r.n--
	}
	return drained
}

// commitTo discards entries older than mark m: the speculation they
// guard resolved correctly, so their inverses are dead.
func (r *undoRing) commitTo(m SpecMark) {
	drop := int(uint64(m) - r.base)
	if drop > r.n {
		drop = r.n
	}
	r.head += drop
	if r.head >= len(r.buf) {
		r.head -= len(r.buf)
	}
	r.base += uint64(drop)
	r.n -= drop
}

// reset clears the log (predictor Reset).
func (r *undoRing) reset() { r.head, r.n, r.base = 0, 0, 0 }

// logPathHist records the inverse of an imminent hist.Push(addr): the
// head position and the ring slot the push will overwrite.
func logPathHist(log *undoRing, h *PathHistory) {
	next := h.head + 1
	if next == len(h.ring) {
		next = 0
	}
	log.push(specUndo{kind: undoPathHist, idx: uint32(h.head), addr: h.ring[next]})
}

// undoPathHistApply reverses one hist.Push: restore the overwritten slot
// and retreat the head.
func undoPathHistApply(h *PathHistory, e *specUndo) {
	h.ring[h.head] = e.addr
	h.head = int(e.idx)
}

// --- PathExit ---

// SpecUpdateExit implements SpecExitPredictor.
func (p *PathExit) SpecUpdateExit(t *tfg.Task, exit int) { p.updateExit(t, exit, &p.undo) }

// MarkExit implements SpecExitPredictor.
func (p *PathExit) MarkExit() SpecMark { return p.undo.mark() }

// RepairExit implements SpecExitPredictor.
func (p *PathExit) RepairExit(m SpecMark) { p.undo.repairTo(m, p) }

// CommitExit implements SpecExitPredictor.
func (p *PathExit) CommitExit(m SpecMark) { p.undo.commitTo(m) }

func (p *PathExit) applyUndo(e *specUndo) {
	switch e.kind {
	case undoAutState, undoAutCreate:
		p.pht.applyUndo(e)
	case undoPathHist:
		p.path.undoPush(e)
	}
}

// --- GlobalExit ---

// SpecUpdateExit implements SpecExitPredictor.
func (p *GlobalExit) SpecUpdateExit(t *tfg.Task, exit int) { p.updateExit(t, exit, &p.undo) }

// MarkExit implements SpecExitPredictor.
func (p *GlobalExit) MarkExit() SpecMark { return p.undo.mark() }

// RepairExit implements SpecExitPredictor.
func (p *GlobalExit) RepairExit(m SpecMark) { p.undo.repairTo(m, p) }

// CommitExit implements SpecExitPredictor.
func (p *GlobalExit) CommitExit(m SpecMark) { p.undo.commitTo(m) }

func (p *GlobalExit) applyUndo(e *specUndo) {
	switch e.kind {
	case undoAutState, undoAutCreate:
		p.pht.applyUndo(e)
	case undoExitHist:
		p.hist = ExitHistory(e.prev)
	}
}

// --- PerExit ---

// SpecUpdateExit implements SpecExitPredictor.
func (p *PerExit) SpecUpdateExit(t *tfg.Task, exit int) { p.updateExit(t, exit, &p.undo) }

// MarkExit implements SpecExitPredictor.
func (p *PerExit) MarkExit() SpecMark { return p.undo.mark() }

// RepairExit implements SpecExitPredictor.
func (p *PerExit) RepairExit(m SpecMark) { p.undo.repairTo(m, p) }

// CommitExit implements SpecExitPredictor.
func (p *PerExit) CommitExit(m SpecMark) { p.undo.commitTo(m) }

func (p *PerExit) applyUndo(e *specUndo) {
	switch e.kind {
	case undoAutState, undoAutCreate:
		p.pht.applyUndo(e)
	case undoHRT:
		p.hrt[e.idx] = ExitHistory(e.prev)
	}
}

// --- IdealGlobal ---

// SpecUpdateExit implements SpecExitPredictor.
func (p *IdealGlobal) SpecUpdateExit(t *tfg.Task, exit int) { p.updateExit(t, exit, &p.undo) }

// MarkExit implements SpecExitPredictor.
func (p *IdealGlobal) MarkExit() SpecMark { return p.undo.mark() }

// RepairExit implements SpecExitPredictor.
func (p *IdealGlobal) RepairExit(m SpecMark) { p.undo.repairTo(m, p) }

// CommitExit implements SpecExitPredictor.
func (p *IdealGlobal) CommitExit(m SpecMark) { p.undo.commitTo(m) }

func (p *IdealGlobal) applyUndo(e *specUndo) {
	if e.kind == undoExitHist {
		p.hist = ExitHistory(e.prev)
		return
	}
	p.table.applyUndo(e)
}

// --- IdealPer ---

// SpecUpdateExit implements SpecExitPredictor.
func (p *IdealPer) SpecUpdateExit(t *tfg.Task, exit int) { p.updateExit(t, exit, &p.undo) }

// MarkExit implements SpecExitPredictor.
func (p *IdealPer) MarkExit() SpecMark { return p.undo.mark() }

// RepairExit implements SpecExitPredictor.
func (p *IdealPer) RepairExit(m SpecMark) { p.undo.repairTo(m, p) }

// CommitExit implements SpecExitPredictor.
func (p *IdealPer) CommitExit(m SpecMark) { p.undo.commitTo(m) }

func (p *IdealPer) applyUndo(e *specUndo) {
	if e.kind == undoPerHist {
		p.setHist(e.addr, ExitHistory(e.prev))
		return
	}
	p.table.applyUndo(e)
}

// --- IdealPath ---

// SpecUpdateExit implements SpecExitPredictor.
func (p *IdealPath) SpecUpdateExit(t *tfg.Task, exit int) { p.updateExit(t, exit, &p.undo) }

// MarkExit implements SpecExitPredictor.
func (p *IdealPath) MarkExit() SpecMark { return p.undo.mark() }

// RepairExit implements SpecExitPredictor.
func (p *IdealPath) RepairExit(m SpecMark) { p.undo.repairTo(m, p) }

// CommitExit implements SpecExitPredictor.
func (p *IdealPath) CommitExit(m SpecMark) { p.undo.commitTo(m) }

func (p *IdealPath) applyUndo(e *specUndo) {
	if e.kind == undoPathReg {
		p.reg.w = e.key
		return
	}
	p.table.applyUndo(e)
}

// --- CTTB ---

// SpecTrain implements SpecTargetBuffer.
func (b *CTTB) SpecTrain(current, target isa.Addr) { b.train(current, target, &b.undo) }

// SpecAdvance implements SpecTargetBuffer.
func (b *CTTB) SpecAdvance(current isa.Addr) {
	logPathHist(&b.undo, &b.path.hist)
	b.path.push(current)
}

// MarkTarget implements SpecTargetBuffer.
func (b *CTTB) MarkTarget() SpecMark { return b.undo.mark() }

// RepairTarget implements SpecTargetBuffer.
func (b *CTTB) RepairTarget(m SpecMark) { b.undo.repairTo(m, b) }

// CommitTarget implements SpecTargetBuffer.
func (b *CTTB) CommitTarget(m SpecMark) { b.undo.commitTo(m) }

func (b *CTTB) applyUndo(e *specUndo) {
	switch e.kind {
	case undoTTBEntry:
		wasValid := b.entries[e.idx]&ttbValid != 0
		b.entries[e.idx] = e.prev
		if e.prev&ttbValid != 0 {
			b.valid.set(e.idx)
		} else {
			b.valid.unset(e.idx)
			if wasValid {
				b.touched--
			}
		}
	case undoPathHist:
		b.path.undoPush(e)
	}
}

// --- IdealCTTB ---

// SpecTrain implements SpecTargetBuffer.
func (b *IdealCTTB) SpecTrain(current, target isa.Addr) { b.train(current, target, &b.undo) }

// SpecAdvance implements SpecTargetBuffer.
func (b *IdealCTTB) SpecAdvance(current isa.Addr) {
	b.undo.push(specUndo{kind: undoPathReg, key: b.reg.w})
	b.reg.push(current)
}

// MarkTarget implements SpecTargetBuffer.
func (b *IdealCTTB) MarkTarget() SpecMark { return b.undo.mark() }

// RepairTarget implements SpecTargetBuffer.
func (b *IdealCTTB) RepairTarget(m SpecMark) { b.undo.repairTo(m, b) }

// CommitTarget implements SpecTargetBuffer.
func (b *IdealCTTB) CommitTarget(m SpecMark) { b.undo.commitTo(m) }

func (b *IdealCTTB) applyUndo(e *specUndo) {
	if e.kind == undoPathReg {
		b.reg.w = e.key
		return
	}
	b.table.applyUndo(e)
}

// --- Sessions ---

// specExitFrame is one in-flight exit speculation: the task, the
// predicted and actual exits, and the checkpoint taken before the
// speculative update.
type specExitFrame struct {
	task *tfg.Task
	pred int8
	act  int8
	mark SpecMark
}

// SpecExitSession drives an exit predictor through the speculative-
// update protocol: every Step predicts, checkpoints and spec-updates
// immediately; actual outcomes resolve in program order `lag` steps
// later. A correct resolution commits the oldest frame's undo entries; a
// wrong one repairs the predictor back to that frame's mark — undoing
// its own wrong-outcome training *and* every younger frame's wrong-path
// training — then replays all windowed actual outcomes non-speculatively
// (the squash gives outcomes time to catch up) and clears the window.
//
// With lag 0 each frame resolves inside its own Step, so a committed
// speculative update trained the actual outcome and a repaired one is
// replaced by exactly the idealized update: lag-0 spec replay is
// byte-identical to the §3.1 idealized mode (pinned by test).
type SpecExitSession struct {
	pred SpecExitPredictor
	lag  int
	win  []specExitFrame
	head int
	n    int

	rollbacks    int
	repairFrames int
}

// NewSpecExitSession wraps p for speculative-update replay with the
// given resolution lag (outcomes return `lag` tasks late; 0 resolves
// within the step). It fails if p does not support checkpoint repair —
// notably DelayedUpdate wrappers and fault injectors, whose lag/fault
// semantics compose with speculation at the session level instead.
func NewSpecExitSession(p ExitPredictor, lag int) (*SpecExitSession, error) {
	sp, ok := p.(SpecExitPredictor)
	if !ok {
		return nil, fmt.Errorf("core: exit predictor %s does not support speculative update", p.Name())
	}
	if c, ok := p.(interface{ specErr() error }); ok {
		if err := c.specErr(); err != nil {
			return nil, err
		}
	}
	if lag < 0 {
		lag = 0
	}
	return &SpecExitSession{
		pred: sp,
		lag:  lag,
		win:  make([]specExitFrame, lag+1),
	}, nil
}

// Step predicts task t, speculatively trains the predictor with its own
// prediction, and resolves the step that fell due. It returns the
// prediction for scoring.
func (s *SpecExitSession) Step(t *tfg.Task, actual int) int {
	pred := s.pred.PredictExit(t)
	mark := s.pred.MarkExit()
	s.pred.SpecUpdateExit(t, pred)
	i := s.head + s.n
	if i >= len(s.win) {
		i -= len(s.win)
	}
	s.win[i] = specExitFrame{task: t, pred: int8(pred), act: int8(actual), mark: mark}
	s.n++
	if s.n > s.lag {
		s.resolveOldest()
	}
	return pred
}

// Finish resolves every still-windowed outcome at trace end.
func (s *SpecExitSession) Finish() {
	for s.n > 0 {
		s.resolveOldest()
	}
}

func (s *SpecExitSession) resolveOldest() {
	f := &s.win[s.head]
	if f.pred == f.act {
		// Correct: the oldest frame's speculative training becomes
		// architectural. Its undo entries end where the next frame's
		// begin (or at the current log head when it is alone).
		var next SpecMark
		if s.n > 1 {
			j := s.head + 1
			if j >= len(s.win) {
				j -= len(s.win)
			}
			next = s.win[j].mark
		} else {
			next = s.pred.MarkExit()
		}
		s.pred.CommitExit(next)
		s.head++
		if s.head >= len(s.win) {
			s.head = 0
		}
		s.n--
		return
	}
	// Mispredict: squash. Repair to the resolving frame's checkpoint,
	// then apply every windowed actual outcome non-speculatively.
	var start time.Time
	timed := obs.On()
	if timed {
		start = time.Now() //detlint:allow det-time (obs-gated duration metric; never rendered deterministically)
	}
	s.pred.RepairExit(f.mark)
	s.rollbacks++
	s.repairFrames += s.n
	for k := 0; k < s.n; k++ {
		j := s.head + k
		if j >= len(s.win) {
			j -= len(s.win)
		}
		g := &s.win[j]
		s.pred.UpdateExit(g.task, int(g.act))
	}
	s.head, s.n = 0, 0
	if timed {
		obsSpecRepairNanos.Add(time.Since(start).Nanoseconds())
		obsSpecRollbacks.Inc()
	}
}

// Rollbacks returns how many mispredict repairs the session performed.
func (s *SpecExitSession) Rollbacks() int { return s.rollbacks }

// RepairFrames returns the total frames squashed across all repairs.
func (s *SpecExitSession) RepairFrames() int { return s.repairFrames }

// specTaskFrame is one in-flight task speculation.
type specTaskFrame struct {
	task *tfg.Task
	pred Prediction
	act  Outcome
	mark TaskMark
}

// SpecTaskSession drives a full task predictor through the speculative-
// update protocol; see SpecExitSession for the windowing and repair
// semantics. A frame resolves correctly only when its *entire* predicted
// outcome matched — exit (when the predictor names one) and target — so
// a committed speculative update is always identical to the idealized
// update it replaces; anything less rolls back. Rollbacks can therefore
// exceed the scored (target-only) miss count.
type SpecTaskSession struct {
	pred SpecTaskPredictor
	lag  int
	win  []specTaskFrame
	head int
	n    int

	// kern is pred resolved for the devirtualized composed step
	// (kernel.go), valid when fast is set.
	kern composedKernel
	fast bool

	rollbacks    int
	repairFrames int
	rasDamage    int
}

// NewSpecTaskSession wraps p for speculative-update replay with the
// given resolution lag. It fails if p or any of its components does not
// support checkpoint repair.
func NewSpecTaskSession(p TaskPredictor, lag int) (*SpecTaskSession, error) {
	sp, ok := p.(SpecTaskPredictor)
	if !ok {
		return nil, fmt.Errorf("core: task predictor %s does not support speculative update", p.Name())
	}
	if init, ok := p.(interface{ specInit() error }); ok {
		if err := init.specInit(); err != nil {
			return nil, err
		}
	}
	if lag < 0 {
		lag = 0
	}
	s := &SpecTaskSession{
		pred: sp,
		lag:  lag,
		win:  make([]specTaskFrame, lag+1),
	}
	if h, ok := p.(*HeaderPredictor); ok {
		s.kern, s.fast = h.kernel()
	}
	return s, nil
}

// Step predicts task t, speculatively trains the predictor with its own
// prediction, and resolves the step that fell due. It returns the
// prediction for scoring.
func (s *SpecTaskSession) Step(t *tfg.Task, actual Outcome) Prediction {
	if s.fast {
		return s.step(t, actual)
	}
	f := s.next(t, actual)
	pred := s.pred.Predict(t)
	f.pred = pred
	f.mark = s.pred.MarkTask()
	s.pred.SpecUpdate(t, pred)
	s.admit()
	return pred
}

// step is Step through the devirtualized composed kernel.
func (s *SpecTaskSession) step(t *tfg.Task, actual Outcome) Prediction {
	f := s.next(t, actual)
	var r composedRead
	pred := s.kern.predict(t, &r)
	f.pred = pred
	s.kern.markInto(&f.mark)
	s.kern.update(t, &r, Outcome(pred), true)
	s.admit()
	return pred
}

// next returns the free window slot the step of task t fills in place.
func (s *SpecTaskSession) next(t *tfg.Task, actual Outcome) *specTaskFrame {
	i := s.head + s.n
	if i >= len(s.win) {
		i -= len(s.win)
	}
	f := &s.win[i]
	f.task, f.act = t, actual
	return f
}

// admit windows the frame next returned and resolves the oldest
// frame once it falls due.
func (s *SpecTaskSession) admit() {
	s.n++
	if s.n > s.lag {
		s.resolveOldest()
	}
}

// replayBlock steps every prediction step of b through the session and
// scores it, with the per-kind accounting accumulating into byKind: the
// block kernel of EvaluateTaskSpecBlocks.
func (s *SpecTaskSession) replayBlock(b *trace.Block, byKind *[isa.NumControlKinds]KindMisses) (steps, exitMisses, misses int) {
	entries := b.Dict.Entries
	taskIdx, exits, targetIdx := b.TaskIdx, b.Exits, b.TargetIdx
	for i := 0; i < b.N; i++ {
		e := exits[i]
		if e == trace.HaltExit {
			continue
		}
		ent := &entries[taskIdx[i]]
		target := entries[targetIdx[i]].Addr
		o := Outcome{Exit: int(e), Target: target}
		var pred Prediction
		if s.fast {
			pred = s.step(ent.Task, o)
		} else {
			pred = s.Step(ent.Task, o)
		}
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
	}
	return steps, exitMisses, misses
}

// Finish resolves every still-windowed outcome at trace end.
func (s *SpecTaskSession) Finish() {
	for s.n > 0 {
		s.resolveOldest()
	}
}

func (s *SpecTaskSession) resolveOldest() {
	f := &s.win[s.head]
	if f.pred.Target == f.act.Target && (f.pred.Exit < 0 || f.pred.Exit == f.act.Exit) {
		// The mark is taken only when the frame is alone: otherwise
		// the next frame's checkpoint bounds the entries to drop.
		var next TaskMark
		if s.n > 1 {
			j := s.head + 1
			if j >= len(s.win) {
				j -= len(s.win)
			}
			next = s.win[j].mark
		} else if s.fast {
			s.kern.markInto(&next)
		} else {
			next = s.pred.MarkTask()
		}
		if s.fast {
			s.kern.commit(&next)
		} else {
			s.pred.CommitTask(next)
		}
		s.head++
		if s.head >= len(s.win) {
			s.head = 0
		}
		s.n--
		return
	}
	var start time.Time
	timed := obs.On()
	if timed {
		start = time.Now() //detlint:allow det-time (obs-gated duration metric; never rendered deterministically)
	}
	if s.pred.RepairTask(f.mark) {
		s.rasDamage++
	}
	s.rollbacks++
	s.repairFrames += s.n
	for k := 0; k < s.n; k++ {
		j := s.head + k
		if j >= len(s.win) {
			j -= len(s.win)
		}
		g := &s.win[j]
		s.pred.Update(g.task, g.act)
	}
	s.head, s.n = 0, 0
	if timed {
		obsSpecRepairNanos.Add(time.Since(start).Nanoseconds())
		obsSpecRollbacks.Inc()
	}
}

// Rollbacks returns how many mispredict repairs the session performed.
func (s *SpecTaskSession) Rollbacks() int { return s.rollbacks }

// RepairFrames returns the total frames squashed across all repairs.
func (s *SpecTaskSession) RepairFrames() int { return s.repairFrames }

// RASDamage returns how many repairs found live RAS entries clobbered by
// deep wrong-path pushes (inexact repairs — see RAS.Repair).
func (s *SpecTaskSession) RASDamage() int { return s.rasDamage }
