package core

import (
	"fmt"

	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
)

// Reference realizable predictors for the differential oracle
// (oracle_test.go): PATH, GLOBAL and PER exit predictors and the CTTB as
// tables of heap automata, one interface value per PHT slot, with the
// DOLC index recomputed from the history ring on every call. This is the
// straightforward layout the flat tables replaced; the oracle drives
// both in lockstep and requires identical predictions, States() and
// corruption results.

// refAutomaton is a heap prediction automaton: one PHT entry.
type refAutomaton interface {
	Predict() int
	Update(actual int)
	packState() uint64
	unpackState(uint64)
	flipBit(rnd func(int) int)
}

// refNewAutomaton creates a fresh automaton of kind k; TieRandom voting
// counters draw their ties from r, which the owning predictor shares.
func refNewAutomaton(k AutomatonKind, r *rng) refAutomaton {
	switch k.class {
	case autLE:
		le := refLastExit(0)
		return &le
	case autLEH:
		return &refLEH{max: k.max}
	default:
		return &refVC{max: k.max, tie: k.tie, mru: -1, rng: r}
	}
}

// refLastExit predicts whatever exit was taken last time (LE).
type refLastExit int8

func (a *refLastExit) Predict() int         { return int(*a) }
func (a *refLastExit) Update(actual int)    { *a = refLastExit(actual) }
func (a *refLastExit) packState() uint64    { return packExit(int(*a)) }
func (a *refLastExit) unpackState(v uint64) { *a = refLastExit(lastExitOf(v)) }

// flipBit flips one of the two stored exit-number bits.
func (a *refLastExit) flipBit(rnd func(int) int) {
	*a = refLastExit(int8(*a) ^ int8(1<<rnd(2)))
}

// refLEH is last-exit with hysteresis, spelled out on fields.
type refLEH struct {
	exit, ctr, max int8
}

func (a *refLEH) Predict() int { return int(a.exit) }

func (a *refLEH) Update(actual int) {
	switch {
	case int(a.exit) == actual:
		if a.ctr < a.max {
			a.ctr++
		}
	case a.ctr == 0:
		a.exit = int8(actual)
	default:
		a.ctr--
	}
}

func (a *refLEH) packState() uint64 {
	return uint64(uint8(a.exit)) | uint64(uint8(a.ctr))<<8
}

func (a *refLEH) unpackState(v uint64) {
	a.exit = int8(uint8(v))
	a.ctr = int8(uint8(v >> 8))
}

// flipBit flips a bit of the stored exit (2 bits) or of the counter.
func (a *refLEH) flipBit(rnd func(int) int) {
	ctrBits := 1
	if a.max == 3 {
		ctrBits = 2
	}
	b := rnd(2 + ctrBits)
	if b < 2 {
		a.exit ^= 1 << b
		return
	}
	a.ctr ^= 1 << (b - 2)
}

// refVC keeps one saturating counter per exit (§5.1 voting counters).
type refVC struct {
	ctr [tfg.MaxExits]int8
	max int8
	tie TiePolicy
	mru int8
	rng *rng
}

func (a *refVC) Predict() int {
	best := a.ctr[0]
	for _, c := range a.ctr[1:] {
		if c > best {
			best = c
		}
	}
	var ties []int
	for i, c := range a.ctr {
		if c == best {
			ties = append(ties, i)
		}
	}
	if len(ties) == 1 {
		return ties[0]
	}
	if a.tie == TieMRU {
		for _, t := range ties {
			if int(a.mru) == t {
				return t
			}
		}
		return ties[0]
	}
	return ties[a.rng.intn(len(ties))]
}

func (a *refVC) Update(actual int) {
	for i := range a.ctr {
		if i == actual {
			if a.ctr[i] < a.max {
				a.ctr[i]++
			}
		} else if a.ctr[i] > 0 {
			a.ctr[i]--
		}
	}
	a.mru = int8(actual)
}

func (a *refVC) packState() uint64 {
	v := uint64(uint8(a.mru)) << vcMRUShift
	for i, c := range a.ctr {
		v |= uint64(uint8(c)) << (8 * uint(i))
	}
	return v
}

func (a *refVC) unpackState(v uint64) {
	for i := range a.ctr {
		a.ctr[i] = int8(uint8(v >> (8 * uint(i))))
	}
	a.mru = int8(uint8(v >> vcMRUShift))
}

// flipBit flips a bit of one voting counter.
func (a *refVC) flipBit(rnd func(int) int) {
	ctrBits := 2
	if a.max == 7 {
		ctrBits = 3
	}
	a.ctr[rnd(len(a.ctr))] ^= 1 << rnd(ctrBits)
}

// refPHT is a table of heap automata; nil slots are untouched.
type refPHT struct {
	slots   []refAutomaton
	kind    AutomatonKind
	rng     *rng
	touched int
}

func (t *refPHT) slot(idx uint32, log *undoRing) refAutomaton {
	a := t.slots[idx]
	if a == nil {
		a = refNewAutomaton(t.kind, t.rng)
		t.slots[idx] = a
		t.touched++
		if log != nil {
			log.push(specUndo{kind: undoAutCreate, idx: idx})
		}
	}
	return a
}

func (t *refPHT) update(idx uint32, exit int, log *undoRing) {
	a := t.slot(idx, log)
	if log != nil {
		log.push(specUndo{kind: undoAutState, idx: idx, prev: a.packState()})
	}
	a.Update(exit)
}

func (t *refPHT) reset(seed uint32) {
	clear(t.slots)
	t.touched = 0
	r := newRNG(seed)
	t.rng = &r
}

// undo applies an automaton undo entry, reporting whether it was one.
func (t *refPHT) undo(e *specUndo) bool {
	switch e.kind {
	case undoAutState:
		t.slots[e.idx].unpackState(e.prev)
	case undoAutCreate:
		t.slots[e.idx] = nil
		t.touched--
	default:
		return false
	}
	return true
}

// corrupt scans forward entry by entry from a random start for the
// first allocated automaton and flips one of its bits.
func (t *refPHT) corrupt(rnd func(int) int) bool {
	n := len(t.slots)
	start := rnd(n)
	for i := 0; i < n; i++ {
		if a := t.slots[(start+i)%n]; a != nil {
			a.flipBit(rnd)
			return true
		}
	}
	return false
}

func newRefPHT(size int, kind AutomatonKind, seed uint32) refPHT {
	t := refPHT{slots: make([]refAutomaton, size), kind: kind}
	t.reset(seed)
	return t
}

// refPathExit is the reference PATH predictor.
type refPathExit struct {
	dolc    DOLC
	opts    PathExitOptions
	hist    PathHistory
	pht     refPHT
	undo    undoRing
	pending []pendingTrain
}

func newRefPathExit(d DOLC, kind AutomatonKind, opts PathExitOptions) *refPathExit {
	return &refPathExit{dolc: d, opts: opts, pht: newRefPHT(d.TableSize(), kind, opts.Seed+0x5f0d)}
}

func (p *refPathExit) Name() string { return fmt.Sprintf("ref-PATH(%v)", p.dolc) }
func (p *refPathExit) States() int  { return p.pht.touched }

func (p *refPathExit) Reset() {
	p.hist.Reset()
	p.pht.reset(p.opts.Seed + 0x5f0d)
	p.undo.reset()
	p.pending = p.pending[:0]
}

func (p *refPathExit) PredictExit(t *tfg.Task) int {
	if p.opts.SkipSingleExit && t.SingleExit() {
		return 0
	}
	return clampExit(p.pht.slot(p.dolc.Index(&p.hist, t.Start), nil).Predict(), t)
}

func (p *refPathExit) UpdateExit(t *tfg.Task, exit int) { p.updateExit(t, exit, nil) }

func (p *refPathExit) updateExit(t *tfg.Task, exit int, log *undoRing) {
	single := t.SingleExit()
	if !(p.opts.SkipSingleExit && single) {
		idx := p.dolc.Index(&p.hist, t.Start)
		if p.opts.TrainLatency == 0 {
			p.pht.update(idx, exit, log)
		} else {
			p.pending = append(p.pending, pendingTrain{idx: idx, exit: int8(exit)})
			if len(p.pending) > p.opts.TrainLatency {
				u := p.pending[0]
				p.pending = append(p.pending[:0], p.pending[1:]...)
				p.pht.update(u.idx, int(u.exit), nil)
			}
		}
	}
	if !(p.opts.SkipSingleExitHistory && single) {
		if log != nil {
			logPathHist(log, &p.hist)
		}
		p.hist.Push(t.Start)
	}
}

func (p *refPathExit) SpecUpdateExit(t *tfg.Task, exit int) { p.updateExit(t, exit, &p.undo) }
func (p *refPathExit) MarkExit() SpecMark                   { return p.undo.mark() }
func (p *refPathExit) RepairExit(m SpecMark)                { p.undo.repairTo(m, p) }
func (p *refPathExit) CommitExit(m SpecMark)                { p.undo.commitTo(m) }

func (p *refPathExit) applyUndo(e *specUndo) {
	if !p.pht.undo(e) && e.kind == undoPathHist {
		undoPathHistApply(&p.hist, e)
	}
}

func (p *refPathExit) CorruptCounter(rnd func(int) int) bool { return p.pht.corrupt(rnd) }
func (p *refPathExit) CorruptHistory(rnd func(int) int) bool {
	p.hist.FlipBit(rnd)
	return true
}

// refGlobalExit is the reference real GLOBAL predictor.
type refGlobalExit struct {
	depth, current, indexBits int
	hist                      ExitHistory
	pht                       refPHT
	undo                      undoRing
}

func newRefGlobalExit(depth, currentBits, indexBits int, kind AutomatonKind) *refGlobalExit {
	return &refGlobalExit{depth: depth, current: currentBits, indexBits: indexBits,
		pht: newRefPHT(1<<uint(indexBits), kind, 11)}
}

func (p *refGlobalExit) Name() string { return "ref-GLOBAL" }
func (p *refGlobalExit) States() int  { return p.pht.touched }

func (p *refGlobalExit) Reset() {
	p.hist = 0
	p.pht.reset(11)
	p.undo.reset()
}

func (p *refGlobalExit) index(addr isa.Addr) uint32 {
	v := uint64(p.hist)<<uint(p.current) | uint64(addr)&(1<<uint(p.current)-1)
	mask := uint64(1)<<uint(p.indexBits) - 1
	folded := uint64(0)
	for v != 0 {
		folded ^= v & mask
		v >>= uint(p.indexBits)
	}
	return uint32(folded)
}

func (p *refGlobalExit) PredictExit(t *tfg.Task) int {
	return clampExit(p.pht.slot(p.index(t.Start), nil).Predict(), t)
}

func (p *refGlobalExit) UpdateExit(t *tfg.Task, exit int) { p.updateExit(t, exit, nil) }

func (p *refGlobalExit) updateExit(t *tfg.Task, exit int, log *undoRing) {
	p.pht.update(p.index(t.Start), exit, log)
	if log != nil {
		log.push(specUndo{kind: undoExitHist, prev: uint64(p.hist)})
	}
	p.hist = p.hist.Push(exit, p.depth)
}

func (p *refGlobalExit) SpecUpdateExit(t *tfg.Task, exit int) { p.updateExit(t, exit, &p.undo) }
func (p *refGlobalExit) MarkExit() SpecMark                   { return p.undo.mark() }
func (p *refGlobalExit) RepairExit(m SpecMark)                { p.undo.repairTo(m, p) }
func (p *refGlobalExit) CommitExit(m SpecMark)                { p.undo.commitTo(m) }

func (p *refGlobalExit) applyUndo(e *specUndo) {
	if !p.pht.undo(e) && e.kind == undoExitHist {
		p.hist = ExitHistory(e.prev)
	}
}

func (p *refGlobalExit) CorruptCounter(rnd func(int) int) bool { return p.pht.corrupt(rnd) }
func (p *refGlobalExit) CorruptHistory(rnd func(int) int) bool {
	if p.depth == 0 {
		return false
	}
	p.hist ^= 1 << rnd(2*p.depth)
	return true
}

// refPerExit is the reference real PER predictor.
type refPerExit struct {
	depth, hrtBits, taskBits, indexBits int
	hrt                                 []ExitHistory
	pht                                 refPHT
	undo                                undoRing
}

func newRefPerExit(depth, hrtBits, taskBits, indexBits int, kind AutomatonKind) *refPerExit {
	return &refPerExit{depth: depth, hrtBits: hrtBits, taskBits: taskBits, indexBits: indexBits,
		hrt: make([]ExitHistory, 1<<uint(hrtBits)),
		pht: newRefPHT(1<<uint(indexBits), kind, 13)}
}

func (p *refPerExit) Name() string { return "ref-PER" }
func (p *refPerExit) States() int  { return p.pht.touched }

func (p *refPerExit) Reset() {
	clear(p.hrt)
	p.pht.reset(13)
	p.undo.reset()
}

func (p *refPerExit) hrtIndex(addr isa.Addr) uint32 {
	return uint32(addr) & (1<<uint(p.hrtBits) - 1)
}

func (p *refPerExit) phtIndex(addr isa.Addr, hist ExitHistory) uint32 {
	v := uint64(addr)&(1<<uint(p.taskBits)-1)<<(2*uint(p.depth)) | uint64(hist)
	mask := uint64(1)<<uint(p.indexBits) - 1
	folded := uint64(0)
	for v != 0 {
		folded ^= v & mask
		v >>= uint(p.indexBits)
	}
	return uint32(folded)
}

func (p *refPerExit) PredictExit(t *tfg.Task) int {
	idx := p.phtIndex(t.Start, p.hrt[p.hrtIndex(t.Start)])
	return clampExit(p.pht.slot(idx, nil).Predict(), t)
}

func (p *refPerExit) UpdateExit(t *tfg.Task, exit int) { p.updateExit(t, exit, nil) }

func (p *refPerExit) updateExit(t *tfg.Task, exit int, log *undoRing) {
	h := p.hrtIndex(t.Start)
	p.pht.update(p.phtIndex(t.Start, p.hrt[h]), exit, log)
	if log != nil {
		log.push(specUndo{kind: undoHRT, idx: h, prev: uint64(p.hrt[h])})
	}
	p.hrt[h] = p.hrt[h].Push(exit, p.depth)
}

func (p *refPerExit) SpecUpdateExit(t *tfg.Task, exit int) { p.updateExit(t, exit, &p.undo) }
func (p *refPerExit) MarkExit() SpecMark                   { return p.undo.mark() }
func (p *refPerExit) RepairExit(m SpecMark)                { p.undo.repairTo(m, p) }
func (p *refPerExit) CommitExit(m SpecMark)                { p.undo.commitTo(m) }

func (p *refPerExit) applyUndo(e *specUndo) {
	if !p.pht.undo(e) && e.kind == undoHRT {
		p.hrt[e.idx] = ExitHistory(e.prev)
	}
}

func (p *refPerExit) CorruptCounter(rnd func(int) int) bool { return p.pht.corrupt(rnd) }
func (p *refPerExit) CorruptHistory(rnd func(int) int) bool {
	if p.depth == 0 {
		return false
	}
	p.hrt[rnd(len(p.hrt))] ^= 1 << rnd(2*p.depth)
	return true
}

// refTTBEntry is one reference target buffer entry.
type refTTBEntry struct {
	target isa.Addr
	ctr    int8
	valid  bool
}

func (e *refTTBEntry) pack() uint64 {
	v := uint64(uint32(e.target)) | uint64(uint8(e.ctr))<<32
	if e.valid {
		v |= ttbValid
	}
	return v
}

func (e *refTTBEntry) unpack(v uint64) {
	*e = refTTBEntry{target: isa.Addr(uint32(v)), ctr: int8(uint8(v >> 32)), valid: v&ttbValid != 0}
}

// train is the LEH-style 2-bit hysteresis rule of §5.3.
func (e *refTTBEntry) train(actual isa.Addr) {
	switch {
	case !e.valid || (e.target != actual && e.ctr == 0):
		*e = refTTBEntry{target: actual, ctr: 1, valid: true}
	case e.target == actual:
		if e.ctr < 3 {
			e.ctr++
		}
	default:
		e.ctr--
	}
}

// refCTTB is the reference real CTTB.
type refCTTB struct {
	dolc    DOLC
	hist    PathHistory
	entries []refTTBEntry
	touched int
	undo    undoRing
}

func newRefCTTB(d DOLC) *refCTTB {
	return &refCTTB{dolc: d, entries: make([]refTTBEntry, d.TableSize())}
}

func (b *refCTTB) Name() string { return fmt.Sprintf("ref-CTTB(%v)", b.dolc) }
func (b *refCTTB) States() int  { return b.touched }

func (b *refCTTB) Reset() {
	b.hist.Reset()
	clear(b.entries)
	b.touched = 0
	b.undo.reset()
}

func (b *refCTTB) Lookup(current isa.Addr) (isa.Addr, bool) {
	e := &b.entries[b.dolc.Index(&b.hist, current)]
	if !e.valid {
		return 0, false
	}
	return e.target, true
}

func (b *refCTTB) Train(current, actual isa.Addr) { b.train(current, actual, nil) }

func (b *refCTTB) train(current, actual isa.Addr, log *undoRing) {
	idx := b.dolc.Index(&b.hist, current)
	e := &b.entries[idx]
	if log != nil {
		log.push(specUndo{kind: undoTTBEntry, idx: idx, prev: e.pack()})
	}
	if !e.valid {
		b.touched++
	}
	e.train(actual)
}

func (b *refCTTB) Advance(current isa.Addr) { b.hist.Push(current) }

func (b *refCTTB) SpecTrain(current, target isa.Addr) { b.train(current, target, &b.undo) }

func (b *refCTTB) SpecAdvance(current isa.Addr) {
	logPathHist(&b.undo, &b.hist)
	b.hist.Push(current)
}

func (b *refCTTB) MarkTarget() SpecMark    { return b.undo.mark() }
func (b *refCTTB) RepairTarget(m SpecMark) { b.undo.repairTo(m, b) }
func (b *refCTTB) CommitTarget(m SpecMark) { b.undo.commitTo(m) }

func (b *refCTTB) applyUndo(e *specUndo) {
	switch e.kind {
	case undoTTBEntry:
		ent := &b.entries[e.idx]
		wasValid := ent.valid
		ent.unpack(e.prev)
		if wasValid && !ent.valid {
			b.touched--
		}
	case undoPathHist:
		undoPathHistApply(&b.hist, e)
	}
}

// CorruptEntry scans entry by entry for the first valid one at or after
// a random index, then flips a target bit, zeroes the counter or
// invalidates the entry.
func (b *refCTTB) CorruptEntry(rnd func(int) int) bool {
	n := len(b.entries)
	start := rnd(n)
	for i := 0; i < n; i++ {
		e := &b.entries[(start+i)%n]
		if !e.valid {
			continue
		}
		switch rnd(3) {
		case 0:
			e.target ^= 1 << rnd(pathKeyBits)
		case 1:
			e.ctr = 0
		default:
			*e = refTTBEntry{}
		}
		return true
	}
	return false
}

func (b *refCTTB) CorruptHistory(rnd func(int) int) bool {
	b.hist.FlipBit(rnd)
	return true
}
