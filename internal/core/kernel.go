package core

import (
	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
)

// Devirtualized composed step. The generic replay loops reach a composed
// predictor's components through interfaces: per step, Predict and
// Update call the exit predictor, the target buffer and (in spec mode)
// its Mark/SpecUpdate twins through itabs, and every component recomputes
// the index its prediction already computed. For the realizable
// compositions the experiment grids run — a PATH, GLOBAL or PER exit
// predictor, an optional RAS and an optional real CTTB — composedKernel
// resolves the components to their concrete types once and calls them
// directly. One step shares the indices prediction computed with the
// update that follows it: the exit predictor's PHT index, PER's HRT slot
// and the CTTB index. Nothing between the two changes the history those
// indices fold (the path, exit and HRT registers advance only inside the
// update, after the read), so a recomputed index would be the same one.
// The predictors' own predictAt/updateAt (exit_real.go) and
// lookupAt/trainAt (ttb.go) do the table work, so PredictExit/updateExit
// and the kernel share one definition of each update and its undo order.
//
// The step is exact: the same state transitions, RNG draws, obs counter
// increments and undo-log entries, in the same order, as the generic
// Predict/Update (idealized) and Predict/MarkTask/SpecUpdate (speculative)
// sequences. Every other composition — ideal components, the
// DelayedUpdate wrapper, CTTB-only, fault injectors, custom predictors —
// keeps the generic loop.

// composedKernel is a HeaderPredictor resolved for the devirtualized
// step. Exactly one of path, global and per is set, so the per-step
// dispatch on them is a predictable branch, never an interface call;
// undo is that predictor's undo ring. The RAS and real CTTB are called
// directly (either may be nil).
type composedKernel struct {
	path   *PathExit
	global *GlobalExit
	per    *PerExit
	undo   *undoRing
	ras    *RAS
	cttb   *CTTB
}

// kernel resolves p's components; ok is false when any of them has no
// concrete step (an ideal or wrapped exit predictor, a buffer other than
// the real CTTB).
func (p *HeaderPredictor) kernel() (k composedKernel, ok bool) {
	switch e := p.exit.(type) {
	case *PathExit:
		k.path, k.undo = e, &e.undo
	case *GlobalExit:
		k.global, k.undo = e, &e.undo
	case *PerExit:
		k.per, k.undo = e, &e.undo
	default:
		return k, false
	}
	if p.buf != nil {
		if k.cttb, ok = p.buf.(*CTTB); !ok {
			return k, false
		}
	}
	k.ras = p.ras
	return k, true
}

// composedRead is what a composed prediction computed, carried into the
// update of the same step: the exit PHT index, PER's HRT slot and, when
// the predicted exit looked the CTTB up, its index.
type composedRead struct {
	idx     uint32
	hrt     uint32
	ttb     uint32
	ttbRead bool
}

// predictExit is the exit predictor's PredictExit, recording the indices
// it computed in r.
func (k *composedKernel) predictExit(t *tfg.Task, r *composedRead) int {
	switch {
	case k.path != nil:
		if k.path.skips(t) {
			return 0
		}
		r.idx = k.path.path.index(t.Start)
		return k.path.predictAt(t, r.idx)
	case k.global != nil:
		r.idx = k.global.index(t.Start)
		return k.global.predictAt(t, r.idx)
	default:
		p := k.per
		r.hrt = p.hrtIndex(t.Start)
		r.idx = p.phtIndex(t.Start, p.hrt[r.hrt])
		return p.predictAt(t, r.idx)
	}
}

// predict is HeaderPredictor.Predict, recording what it computed in r.
func (k *composedKernel) predict(t *tfg.Task, r *composedRead) Prediction {
	r.ttbRead = false
	if len(t.Exits) == 0 {
		return Prediction{}
	}
	e := k.predictExit(t, r)
	pred := Prediction{Exit: e}
	x := &t.Exits[e]
	switch {
	case x.HasTarget:
		pred.Target = x.Target
	case x.Kind.IsIndirect():
		if k.cttb != nil {
			r.ttb, r.ttbRead = k.cttb.path.index(t.Start), true
			pred.Target, _ = k.cttb.lookupAt(r.ttb)
		}
	default: // RETURN
		if k.ras != nil {
			pred.Target, _ = k.ras.Top()
		}
	}
	return pred
}

// update trains the components toward o at the indices predict computed
// in r: HeaderPredictor.Update, or with spec set SpecUpdate (o is then the
// prediction, and the exit predictor and CTTB undo-log every mutation).
func (k *composedKernel) update(t *tfg.Task, r *composedRead, o Outcome, spec bool) {
	if len(t.Exits) > 0 {
		var log *undoRing
		if spec {
			log = k.undo
		}
		switch {
		case k.path != nil:
			k.path.updateAt(t, r.idx, o.Exit, log)
		case k.global != nil:
			k.global.updateAt(r.idx, o.Exit, log)
		default:
			k.per.updateAt(r.hrt, r.idx, o.Exit, log)
		}
		x := &t.Exits[o.Exit]
		if x.Kind.IsIndirect() && k.cttb != nil {
			if !r.ttbRead {
				r.ttb = k.cttb.path.index(t.Start)
			}
			log = nil
			if spec {
				log = &k.cttb.undo
			}
			k.cttb.trainAt(r.ttb, o.Target, log)
		}
		if k.ras != nil {
			switch {
			case x.Kind.IsCall():
				k.ras.Push(x.Return)
			case x.Kind == isa.KindReturn:
				k.ras.Pop()
			}
		}
	}
	if k.cttb != nil {
		if spec {
			logPathHist(&k.cttb.undo, &k.cttb.path.hist)
		}
		k.cttb.path.push(t.Start)
	}
}

// markInto stores HeaderPredictor.MarkTask's checkpoint in m.
func (k *composedKernel) markInto(m *TaskMark) {
	*m = TaskMark{exit: k.undo.mark()}
	if k.cttb != nil {
		m.buf = k.cttb.undo.mark()
	}
	if k.ras != nil {
		m.ras = k.ras.Mark()
	}
}

// commit is HeaderPredictor.CommitTask.
func (k *composedKernel) commit(m *TaskMark) {
	k.undo.commitTo(m.exit)
	if k.cttb != nil {
		k.cttb.undo.commitTo(m.buf)
	}
}

// ReplayTaskBlock implements TaskBlockReplayer: the idealized composed
// step over a block, or the generic loop when the composition has no
// concrete step.
func (p *HeaderPredictor) ReplayTaskBlock(b *trace.Block, byKind *[isa.NumControlKinds]KindMisses) (steps, exitMisses, misses int) {
	k, ok := p.kernel()
	if !ok {
		return replayTaskBlock(b, p, byKind)
	}
	entries := b.Dict.Entries
	taskIdx, exits, targetIdx := b.TaskIdx, b.Exits, b.TargetIdx
	var r composedRead
	for i := 0; i < b.N; i++ {
		e := exits[i]
		if e == trace.HaltExit {
			continue
		}
		ent := &entries[taskIdx[i]]
		target := entries[targetIdx[i]].Addr
		pred := k.predict(ent.Task, &r)
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
		k.update(ent.Task, &r, Outcome{Exit: int(e), Target: target}, false)
	}
	return steps, exitMisses, misses
}
