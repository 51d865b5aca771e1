package core

import (
	"reflect"
	"testing"

	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
)

// specExitFamilies builds one fresh exit predictor per supported family.
func specExitFamilies() map[string]func() ExitPredictor {
	return map[string]func() ExitPredictor{
		"path-real": func() ExitPredictor { return MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{}) },
		"path-skip": func() ExitPredictor {
			return MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{SkipSingleExit: true})
		},
		"path-vcrand": func() ExitPredictor {
			return MustPathExit(MustDOLC(3, 5, 5, 5, 1), VC3Random, PathExitOptions{Seed: 7})
		},
		"global-real": func() ExitPredictor { p, _ := NewGlobalExit(4, 6, 10, LEH2); return p },
		"per-real":    func() ExitPredictor { p, _ := NewPerExit(4, 6, 6, 10, LEH2); return p },
		"iglobal":     func() ExitPredictor { return NewIdealGlobal(4, LEH2) },
		"iper":        func() ExitPredictor { return NewIdealPer(4, LEH2) },
		"ipath":       func() ExitPredictor { return NewIdealPath(4, VC2MRU) },
	}
}

func specTaskFamilies() map[string]func() TaskPredictor {
	return map[string]func() TaskPredictor{
		"header": func() TaskPredictor {
			return NewHeaderPredictor("h",
				MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{SkipSingleExit: true}),
				NewRAS(8), MustCTTB(MustDOLC(2, 4, 4, 4, 1)))
		},
		"header-ideal": func() TaskPredictor {
			return NewHeaderPredictor("hi", NewIdealPath(4, LEH2), NewRAS(8), NewIdealCTTB(2))
		},
		"header-noras": func() TaskPredictor {
			return NewHeaderPredictor("nr",
				MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{}), nil, nil)
		},
		"cttb-only":  func() TaskPredictor { return NewCTTBOnly(MustCTTB(MustDOLC(4, 4, 5, 5, 1))) },
		"icttb-only": func() TaskPredictor { return NewCTTBOnly(NewIdealCTTB(4)) },
	}
}

// Lag-0 speculative update must be byte-identical to the idealized
// evaluator: every committed speculative update trained the actual
// outcome, and every repaired one was replaced by exactly the idealized
// update. Only the rollback accounting may differ (idealized mode leaves
// it zero).
func TestSpecLagZeroMatchesIdealizedExit(t *testing.T) {
	_, tr := synthGraph()
	for name, mk := range specExitFamilies() {
		ideal := EvaluateExit(tr, mk())
		spec, err := EvaluateExitSpec(tr, mk(), 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if spec.Rollbacks != spec.Misses {
			t.Errorf("%s: lag-0 rollbacks %d != misses %d", name, spec.Rollbacks, spec.Misses)
		}
		spec.Rollbacks, spec.RepairFrames = 0, 0
		if !reflect.DeepEqual(ideal, spec) {
			t.Errorf("%s: lag-0 spec diverges from idealized:\n ideal %+v\n spec  %+v", name, ideal, spec)
		}
	}
}

func TestSpecLagZeroMatchesIdealizedTask(t *testing.T) {
	_, tr := synthGraph()
	for name, mk := range specTaskFamilies() {
		ideal := EvaluateTask(tr, mk())
		spec, err := EvaluateTaskSpec(tr, mk(), 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if spec.Rollbacks < spec.Misses {
			t.Errorf("%s: rollbacks %d < misses %d (full-outcome mismatches include target misses)",
				name, spec.Rollbacks, spec.Misses)
		}
		spec.Rollbacks, spec.RepairFrames, spec.RASDamage = 0, 0, 0
		if !reflect.DeepEqual(ideal, spec) {
			t.Errorf("%s: lag-0 spec diverges from idealized:\n ideal %+v\n spec  %+v", name, ideal, spec)
		}
	}
}

// At positive lag the resolved and unresolved replay paths must agree
// exactly, and repeated runs must be deterministic.
func TestSpecLagDeterministicAcrossPaths(t *testing.T) {
	_, tr := synthGraph()
	rt, err := tr.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	for _, lag := range []int{1, 3, 7} {
		for name, mk := range specExitFamilies() {
			a, err := EvaluateExitSpecResolved(rt, mk(), lag)
			if err != nil {
				t.Fatalf("%s lag %d: %v", name, lag, err)
			}
			b, err := EvaluateExitSpecUnresolved(tr, mk(), lag)
			if err != nil {
				t.Fatalf("%s lag %d: %v", name, lag, err)
			}
			c, err := EvaluateExitSpecResolved(rt, mk(), lag)
			if err != nil {
				t.Fatalf("%s lag %d: %v", name, lag, err)
			}
			if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
				t.Errorf("%s lag %d: paths disagree:\n resolved   %+v\n unresolved %+v\n again      %+v",
					name, lag, a, b, c)
			}
		}
		for name, mk := range specTaskFamilies() {
			a, err := EvaluateTaskSpecResolved(rt, mk(), lag)
			if err != nil {
				t.Fatalf("%s lag %d: %v", name, lag, err)
			}
			b, err := EvaluateTaskSpecUnresolved(tr, mk(), lag)
			if err != nil {
				t.Fatalf("%s lag %d: %v", name, lag, err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s lag %d: paths disagree:\n resolved   %+v\n unresolved %+v", name, lag, a, b)
			}
		}
	}
}

// A mispredict-heavy spec run at positive lag must actually roll back,
// and the squash must replay actual outcomes (so accuracy cannot
// collapse to chance).
func TestSpecLagRollsBackAndRecovers(t *testing.T) {
	_, tr := synthGraph()
	res, err := EvaluateExitSpec(tr, MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{}), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rollbacks == 0 {
		t.Fatal("expected rollbacks on a mispredicting trace")
	}
	if res.RepairFrames < res.Rollbacks {
		t.Fatalf("repair frames %d < rollbacks %d", res.RepairFrames, res.Rollbacks)
	}
	if res.MissRate() > 0.5 {
		t.Fatalf("spec-mode replay collapsed to %.1f%% misses", 100*res.MissRate())
	}
}

// Predictors whose update timing is modelled elsewhere must be refused,
// never silently idealized.
func TestSpecSessionRejectsUnsupported(t *testing.T) {
	inner := MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{})
	if _, err := NewSpecExitSession(NewDelayedUpdate(inner, 3), 0); err == nil {
		t.Error("DelayedUpdate wrapper must not support speculative update")
	}
	lat := MustPathExit(MustDOLC(4, 8, 8, 8, 2), LEH2, PathExitOptions{TrainLatency: 2})
	if _, err := NewSpecExitSession(lat, 0); err == nil {
		t.Error("TrainLatency predictor must not support speculative update")
	}
	if _, err := NewSpecTaskSession(NewHeaderPredictor("x", lat, nil, nil), 0); err == nil {
		t.Error("composed predictor over a TrainLatency exit must be refused")
	}
}

// The undo log must restore predictor state exactly: interleave
// speculative updates with repairs and verify the predictor replays the
// trace identically to a never-speculated twin from that point on. This
// exercises mark/repair nesting beyond what the session drivers do.
func TestSpecRepairRestoresExactState(t *testing.T) {
	_, tr := synthGraph()
	for name, mk := range specExitFamilies() {
		clean := mk()
		clean.Reset()
		dirty := mk()
		dirty.Reset()
		sd := dirty.(SpecExitPredictor)
		if c, ok := dirty.(interface{ specErr() error }); ok && c.specErr() != nil {
			continue
		}
		for i, st := range tr.Steps {
			if st.Exit == trace.HaltExit {
				continue
			}
			task := tr.Graph.TaskAt(st.Task)
			pc := clean.PredictExit(task)
			pd := dirty.PredictExit(task)
			if pc != pd {
				t.Fatalf("%s: step %d: predictions diverge (%d vs %d) after repairs", name, i, pc, pd)
			}
			// Every few steps, speculate a burst of wrong-path updates on
			// the dirty twin, then repair them all away — nested marks.
			if i%3 == 0 {
				m1 := sd.MarkExit()
				sd.SpecUpdateExit(task, (pd+1)%4)
				m2 := sd.MarkExit()
				sd.SpecUpdateExit(task, (pd+2)%4)
				sd.RepairExit(m2)
				sd.SpecUpdateExit(task, (pd+3)%4)
				sd.RepairExit(m1)
			}
			clean.UpdateExit(task, int(st.Exit))
			dirty.UpdateExit(task, int(st.Exit))
		}
		if clean.States() != dirty.States() {
			t.Errorf("%s: States diverge after repairs: %d vs %d", name, clean.States(), dirty.States())
		}
	}
}

// Wrong-path creations that grow an ideal context table must repair
// away exactly: the undo log names contexts by key, so the deletes find
// their entries after the growth moved every slot, and the repaired
// predictor then matches a never-speculated twin in States() and in
// every later prediction.
func TestSpecRepairAcrossTableGrowth(t *testing.T) {
	_, tr := synthGraph()
	exits := map[string]func() ExitPredictor{
		"iglobal": func() ExitPredictor { return NewIdealGlobal(MaxHistoryDepth, VC2Random) },
		"iper":    func() ExitPredictor { return NewIdealPer(4, VC3MRU) },
		"ipath":   func() ExitPredictor { return NewIdealPath(4, VC2Random) },
	}
	// Enough distinct wrong-path contexts to pass the initial table's
	// load bound at least twice.
	wrong := make([]*tfg.Task, 4*ctxInitSlots)
	for i := range wrong {
		wrong[i] = mkTask(isa.Addr(1000+i), branchSpec(10), branchSpec(20), branchSpec(30))
	}
	half := len(tr.Steps) / 2
	for name, mk := range exits {
		clean, dirty := mk(), mk()
		clean.Reset()
		dirty.Reset()
		sd := dirty.(SpecExitPredictor)
		for i, st := range tr.Steps {
			if st.Exit == trace.HaltExit {
				continue
			}
			task := tr.Graph.TaskAt(st.Task)
			if pc, pd := clean.PredictExit(task), dirty.PredictExit(task); pc != pd {
				t.Fatalf("%s: step %d: predictions diverge (%d vs %d) after repair", name, i, pc, pd)
			}
			if i == half {
				before := dirty.States()
				m := sd.MarkExit()
				for j, w := range wrong {
					sd.SpecUpdateExit(w, j%3)
				}
				if dirty.States() < before+len(wrong) {
					t.Fatalf("%s: wrong path created %d contexts, want %d", name, dirty.States()-before, len(wrong))
				}
				sd.RepairExit(m)
				if dirty.States() != before {
					t.Fatalf("%s: States %d after repair, want %d", name, dirty.States(), before)
				}
			}
			clean.UpdateExit(task, int(st.Exit))
			dirty.UpdateExit(task, int(st.Exit))
		}
		if clean.States() != dirty.States() {
			t.Errorf("%s: States diverge after repair: %d vs %d", name, clean.States(), dirty.States())
		}
	}

	clean, dirty := NewIdealCTTB(4), NewIdealCTTB(4)
	for i := 0; i < 2000; i++ {
		cur, next := isa.Addr(i%7), isa.Addr(i%5)
		if i == 1000 {
			before := dirty.States()
			m := dirty.MarkTarget()
			for j := 0; j < 4*ctxInitSlots; j++ {
				dirty.SpecTrain(isa.Addr(3000+j), isa.Addr(j))
				dirty.SpecAdvance(isa.Addr(3000 + j))
			}
			dirty.RepairTarget(m)
			if dirty.States() != before {
				t.Fatalf("icttb: States %d after repair, want %d", dirty.States(), before)
			}
		}
		gc, okc := clean.Lookup(cur)
		gd, okd := dirty.Lookup(cur)
		if gc != gd || okc != okd {
			t.Fatalf("icttb: step %d: lookups diverge after repair", i)
		}
		clean.Train(cur, next)
		dirty.Train(cur, next)
		clean.Advance(cur)
		dirty.Advance(cur)
	}
}
