package core

import (
	"fmt"

	"multiscalar/internal/isa"
	"multiscalar/internal/obs"
	"multiscalar/internal/trace"
)

// TargetBuffer is the interface shared by the task target buffer variants
// (§5.3): a cache of predicted next-task addresses.
//
// The driver contract per dynamic task step is:
//
//	target, ok := b.Lookup(t.Start)   // optional, when a prediction is needed
//	b.Train(t.Start, actualTarget)    // when this step should train the buffer
//	b.Advance(t.Start)                // always, after the step completes
//
// Lookup and Train use the buffer's internal path history as it stood
// before Advance, i.e. the same index is computed for both.
type TargetBuffer interface {
	// Name identifies the buffer configuration in reports.
	Name() string
	// Lookup predicts the next-task address for the current task; ok is
	// false on a miss (no valid entry).
	Lookup(current isa.Addr) (target isa.Addr, ok bool)
	// Train records the actual next-task address for the current context.
	Train(current isa.Addr, actual isa.Addr)
	// Advance shifts the completed task into the buffer's path history.
	Advance(current isa.Addr)
	// Reset returns the buffer to its initial state.
	Reset()
	// States returns the number of distinct entries/contexts touched.
	States() int
}

// A target buffer entry is a target address with an LEH-style 2-bit
// hysteresis counter (the entry's target is replaced only when the
// counter has decayed to zero and the entry misses again), packed into
// one word: the target in bits 0–31, the counter in bits 32–39 and the
// valid flag in bit 40. ttbTrain defines the training rule over that
// word; the zero word is an invalid entry.
const (
	ttbCtrMask = 0xFF << 32
	ttbValid   = 1 << 40
)

// ttbTrain returns packed entry v trained toward the actual target.
func ttbTrain(v uint64, actual isa.Addr) uint64 {
	const max = 3
	target, ctr := isa.Addr(uint32(v)), int8(uint8(v>>32))
	switch {
	case v&ttbValid == 0 || (target != actual && ctr == 0):
		target, ctr = actual, 1
	case target == actual:
		if ctr < max {
			ctr++
		}
	default:
		ctr--
	}
	return uint64(uint32(target)) | uint64(uint8(ctr))<<32 | ttbValid
}

// ttbLookup returns packed entry v's prediction.
func ttbLookup(v uint64) (isa.Addr, bool) {
	return isa.Addr(uint32(v)), v&ttbValid != 0
}

// CTTB is the real Correlated Task Target Buffer: a direct-mapped table
// of target entries indexed by the same DOLC fold of path history and
// current task address as the path-based exit predictor (§5.3). With
// Depth=0 the index degenerates to current-task bits only, which is
// exactly the naive TTB the paper shows to perform poorly.
type CTTB struct {
	path    dolcPath
	entries []uint64 // packed entries
	valid   liveSet  // mirrors each entry's ttbValid bit
	touched int
	undo    undoRing
}

// NewCTTB builds a correlated task target buffer with the given index
// configuration.
func NewCTTB(d DOLC) (*CTTB, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n := d.TableSize()
	return &CTTB{path: newDolcPath(d, false), entries: make([]uint64, n), valid: newLiveSet(n)}, nil
}

// MustCTTB is NewCTTB for statically-known configurations. It panics iff
// the configuration fails validation (see the panic contract on
// MustDOLC); runtime-provided configurations must use NewCTTB.
func MustCTTB(d DOLC) *CTTB {
	b, err := NewCTTB(d)
	if err != nil {
		panic(err)
	}
	return b
}

// NewTTB builds the uncorrelated baseline: a target buffer indexed only
// by low-order bits of the current task address.
func NewTTB(indexBits int) *CTTB {
	return MustCTTB(DOLC{Depth: 0, Current: indexBits, Folds: 1})
}

// Name implements TargetBuffer.
func (b *CTTB) Name() string {
	if b.path.dolc.Depth == 0 {
		return fmt.Sprintf("TTB(%v)", b.path.dolc)
	}
	return fmt.Sprintf("CTTB(%v)", b.path.dolc)
}

// DOLC returns the buffer's index configuration.
func (b *CTTB) DOLC() DOLC { return b.path.dolc }

// SizeBytes returns the buffer storage, counting 4 bytes per entry as the
// paper does ("a CTTB entry is 8 times as large as an exit prediction
// table entry": 32 bits vs 4 bits).
func (b *CTTB) SizeBytes() int { return b.path.dolc.TableSize() * 4 }

// States implements TargetBuffer.
func (b *CTTB) States() int { return b.touched }

// Reset implements TargetBuffer.
func (b *CTTB) Reset() {
	b.path.reset()
	clear(b.entries)
	clear(b.valid)
	b.touched = 0
	b.undo.reset()
}

// Lookup implements TargetBuffer.
func (b *CTTB) Lookup(current isa.Addr) (isa.Addr, bool) {
	target, ok := ttbLookup(b.entries[b.path.index(current)])
	if obs.On() {
		if ok {
			obsCTTBHits.Inc()
		} else {
			obsCTTBMisses.Inc()
		}
	}
	return target, ok
}

// Train implements TargetBuffer.
func (b *CTTB) Train(current isa.Addr, actual isa.Addr) { b.train(current, actual, nil) }

func (b *CTTB) train(current isa.Addr, actual isa.Addr, log *undoRing) {
	idx := b.path.index(current)
	v := b.entries[idx]
	if log != nil {
		log.push(specUndo{kind: undoTTBEntry, idx: idx, prev: v})
	}
	if target, valid := ttbLookup(v); !valid {
		b.touched++
		b.valid.set(idx)
	} else if target != actual && obs.On() {
		// A valid entry trained toward a different target: either true
		// destructive aliasing (another context folded to this index) or
		// an unstable target — both are the conflicts the paper's DOLC
		// folding study is about.
		obsCTTBAliases.Inc()
	}
	b.entries[idx] = ttbTrain(v, actual)
}

// Advance implements TargetBuffer.
func (b *CTTB) Advance(current isa.Addr) { b.path.push(current) }

// ReplayTargetBlock implements TargetBlockReplayer: the generic
// Lookup/Train/Advance sequence with the calls resolved statically, so
// the every-step Advance costs a history push, not an interface call.
func (b *CTTB) ReplayTargetBlock(blk *trace.Block) (steps, misses int) {
	entries := blk.Dict.Entries
	taskIdx, exits, targetIdx := blk.TaskIdx, blk.Exits, blk.TargetIdx
	for j := 0; j < blk.N; j++ {
		ent := &entries[taskIdx[j]]
		if e := exits[j]; e != trace.HaltExit && ent.Indirect[e] {
			target := entries[targetIdx[j]].Addr
			steps++
			if got, ok := b.Lookup(ent.Addr); !ok || got != target {
				misses++
			}
			b.train(ent.Addr, target, nil)
		}
		b.path.push(ent.Addr)
	}
	return steps, misses
}

// IdealCTTB is the alias-free CTTB limit: entries keyed by the exact
// (path, current task) context in a flat context table, with unbounded
// capacity (Figure 8). Contexts are created by training only, so States
// counts trained contexts.
type IdealCTTB struct {
	depth int
	reg   pathReg
	table ctxTable
	undo  undoRing
}

// NewIdealCTTB builds an infinite, alias-free correlated target buffer of
// the given path depth. Depth 0 is the ideal (infinite) naive TTB.
//
// It panics if depth is outside [0, MaxHistoryDepth]. Ideal predictors
// exist only for the paper's limit studies, whose depths are compile-time
// constants; the panic marks a programming error, not an input error
// (see the panic contract on MustDOLC).
func NewIdealCTTB(depth int) *IdealCTTB {
	checkIdealDepth("IdealCTTB", depth)
	return &IdealCTTB{depth: depth, reg: newPathReg(depth), table: newCtxTable()}
}

// Name implements TargetBuffer.
func (b *IdealCTTB) Name() string { return fmt.Sprintf("CTTB-ideal(d=%d)", b.depth) }

// States implements TargetBuffer.
func (b *IdealCTTB) States() int { return b.table.len() }

// Reset implements TargetBuffer.
func (b *IdealCTTB) Reset() {
	b.reg.reset()
	b.table.reset()
	b.undo.reset()
}

// Lookup implements TargetBuffer.
func (b *IdealCTTB) Lookup(current isa.Addr) (isa.Addr, bool) {
	k := b.reg.key(current)
	if i, ok := b.table.probe(&k); ok {
		return ttbLookup(b.table.state(i))
	}
	return 0, false
}

// Train implements TargetBuffer.
func (b *IdealCTTB) Train(current isa.Addr, actual isa.Addr) { b.train(current, actual, nil) }

func (b *IdealCTTB) train(current isa.Addr, actual isa.Addr, log *undoRing) {
	k := b.reg.key(current)
	i, created := b.table.upsert(&k, 0)
	if log != nil {
		b.table.logUpdate(log, &k, i, created)
	}
	b.table.setState(i, ttbTrain(b.table.state(i), actual))
}

// Advance implements TargetBuffer.
func (b *IdealCTTB) Advance(current isa.Addr) { b.reg.push(current) }

// ReplayTargetBlock implements TargetBlockReplayer: Lookup and Train
// fused over one probe per indirect step.
func (b *IdealCTTB) ReplayTargetBlock(blk *trace.Block) (steps, misses int) {
	entries := blk.Dict.Entries
	taskIdx, exits, targetIdx := blk.TaskIdx, blk.Exits, blk.TargetIdx
	for j := 0; j < blk.N; j++ {
		ent := &entries[taskIdx[j]]
		if e := exits[j]; e != trace.HaltExit && ent.Indirect[e] {
			target := entries[targetIdx[j]].Addr
			steps++
			k := b.reg.key(ent.Addr)
			i, _ := b.table.upsert(&k, 0) // a new context reads as an invalid entry
			v := b.table.state(i)
			if got, valid := ttbLookup(v); !valid || got != target {
				misses++
			}
			b.table.setState(i, ttbTrain(v, target))
		}
		b.reg.push(ent.Addr)
	}
	return steps, misses
}
