package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
	"multiscalar/internal/workload"
)

// Differential oracle for the realizable predictors: every flat-table
// PATH, GLOBAL, PER and CTTB configuration the experiment grids use runs
// in lockstep with its heap-automaton reference (refpred_test.go) over a
// prefix of each of the five workloads, and must agree on every
// prediction, every States() value and every corruption hook's result.
// Modes: idealized update, fault injection (both sides fed the same die
// draws, which must also be consumed in the same order), and speculative
// update at resolution lags 1, 4 and 8.

// oracleSteps is the trace prefix replayed per workload.
const oracleSteps = 6000

// The configurations mirror the realizable spec families of
// experiments.AllSpecs() (which this package cannot import): the
// ExitDOLC14 and CTTBDOLC11 depth sweeps, the flagship depth-7 PATH
// with its nosse/ssh/lat4/dlat4 variants, real GLOBAL and PER, the
// standard composed predictor and Table 4's composed rows, plus the
// other automaton kinds on one PATH configuration.
var (
	oracleExitDOLC = []DOLC{
		MustDOLC(0, 0, 0, 14, 1), MustDOLC(1, 0, 7, 7, 1), MustDOLC(2, 4, 5, 5, 1),
		MustDOLC(3, 6, 8, 8, 2), MustDOLC(4, 5, 6, 7, 2), MustDOLC(5, 4, 6, 6, 2),
		MustDOLC(6, 5, 8, 9, 3), MustDOLC(7, 5, 6, 6, 3),
	}
	oracleCTTBDOLC = []DOLC{
		MustDOLC(0, 0, 0, 11, 1), MustDOLC(1, 0, 5, 6, 1), MustDOLC(2, 3, 3, 5, 1),
		MustDOLC(3, 5, 6, 6, 2), MustDOLC(4, 4, 5, 5, 2), MustDOLC(5, 5, 6, 7, 3),
		MustDOLC(6, 4, 6, 7, 3), MustDOLC(7, 4, 4, 5, 3),
		MustDOLC(7, 5, 6, 6, 3), // Table 3's CTTB-only buffer
	}
	oracleD7Exit  = MustDOLC(7, 5, 6, 6, 3)
	oracleD7CTTB  = MustDOLC(7, 4, 4, 5, 3)
	oracleSSE     = PathExitOptions{SkipSingleExit: true}
	oracleRASSize = DefaultRASDepth
)

// oraclePair builds a fresh flat predictor and its reference.
type oraclePair[T any] struct {
	name      string
	flat, ref func() T
	noSpec    bool // a training-latency model: no speculative update
}

func pathPair(name string, d DOLC, k AutomatonKind, o PathExitOptions) oraclePair[ExitPredictor] {
	return oraclePair[ExitPredictor]{name: name,
		flat: func() ExitPredictor { return MustPathExit(d, k, o) },
		ref:  func() ExitPredictor { return newRefPathExit(d, k, o) },
	}
}

func globalPair(k AutomatonKind) oraclePair[ExitPredictor] {
	return oraclePair[ExitPredictor]{name: "global:d7-c14-i14:" + k.Name(),
		flat: func() ExitPredictor { p, _ := NewGlobalExit(7, 14, 14, k); return p },
		ref:  func() ExitPredictor { return newRefGlobalExit(7, 14, 14, k) },
	}
}

func perPair(k AutomatonKind) oraclePair[ExitPredictor] {
	return oraclePair[ExitPredictor]{name: "per:d7-h12-t14-i14:" + k.Name(),
		flat: func() ExitPredictor { p, _ := NewPerExit(7, 12, 14, 14, k); return p },
		ref:  func() ExitPredictor { return newRefPerExit(7, 12, 14, 14, k) },
	}
}

func oracleExitPairs() []oraclePair[ExitPredictor] {
	var ps []oraclePair[ExitPredictor]
	for _, d := range oracleExitDOLC {
		ps = append(ps, pathPair(fmt.Sprintf("path:%v", d), d, LEH2, oracleSSE))
	}
	for _, k := range AllAutomata {
		if k.Name() != LEH2.Name() {
			ps = append(ps, pathPair("path:d3:"+k.Name(), MustDOLC(3, 6, 8, 8, 2), k, PathExitOptions{Seed: 9}))
		}
	}
	ps = append(ps,
		pathPair("path:d7:nosse", oracleD7Exit, LEH2, PathExitOptions{}),
		pathPair("path:d7:ssh", oracleD7Exit, LEH2, PathExitOptions{SkipSingleExit: true, SkipSingleExitHistory: true}),
		globalPair(LEH2), globalPair(VC2Random),
		perPair(LEH2), perPair(VC3MRU),
	)
	lat := pathPair("path:d7:lat4", oracleD7Exit, LEH2, PathExitOptions{SkipSingleExit: true, TrainLatency: 4})
	lat.noSpec = true
	d7 := pathPair("", oracleD7Exit, LEH2, oracleSSE)
	dlat := oraclePair[ExitPredictor]{name: "path:d7:dlat4", noSpec: true,
		flat: func() ExitPredictor { return NewDelayedUpdate(d7.flat(), 4) },
		ref:  func() ExitPredictor { return NewDelayedUpdate(d7.ref(), 4) },
	}
	return append(ps, lat, dlat)
}

func oracleTaskPairs() []oraclePair[TaskPredictor] {
	// header composes an exit pair with a RAS of rasDepth entries (0 =
	// none) and, when cttb is set, the depth-7 CTTB.
	header := func(name string, exit oraclePair[ExitPredictor], rasDepth int, cttb bool) oraclePair[TaskPredictor] {
		build := func(e ExitPredictor, buf TargetBuffer) TaskPredictor {
			var ras *RAS
			if rasDepth > 0 {
				ras = NewRAS(rasDepth)
			}
			if !cttb {
				buf = nil
			}
			return NewHeaderPredictor(name, e, ras, buf)
		}
		return oraclePair[TaskPredictor]{name: name,
			flat: func() TaskPredictor { return build(exit.flat(), MustCTTB(oracleD7CTTB)) },
			ref:  func() TaskPredictor { return build(exit.ref(), newRefCTTB(oracleD7CTTB)) },
		}
	}
	std := pathPair("", oracleD7Exit, LEH2, oracleSSE)
	// An ideal exit component has no reference twin; it runs on both
	// sides and takes the composed kernel's generic fallback.
	ideal := oraclePair[ExitPredictor]{
		flat: func() ExitPredictor { return NewIdealPath(7, LEH2) },
		ref:  func() ExitPredictor { return NewIdealPath(7, LEH2) },
	}
	// Beyond the standard compositions, the pairs reach every arm of
	// the composed kernel's type switch — PATH, GLOBAL and PER exits;
	// RAS and CTTB each present or absent; a one-entry RAS that
	// overflows on every nested call — and its generic fallback.
	ps := []oraclePair[TaskPredictor]{
		header("composed:std", std, oracleRASSize, true),
		header("composed:simple", pathPair("", oracleExitDOLC[0], LEH2, oracleSSE), oracleRASSize, true),
		header("composed:global", globalPair(LEH2), oracleRASSize, true),
		header("composed:per", perPair(LEH2), oracleRASSize, true),
		header("composed:noras", std, 0, true),
		header("composed:nocttb", std, oracleRASSize, false),
		header("composed:ras1", std, 1, true),
		header("composed:ipath", ideal, oracleRASSize, true),
	}
	for _, d := range oracleCTTBDOLC {
		ps = append(ps, oraclePair[TaskPredictor]{name: fmt.Sprintf("cttb:%v", d),
			flat: func() TaskPredictor { return NewCTTBOnly(MustCTTB(d)) },
			ref:  func() TaskPredictor { return NewCTTBOnly(newRefCTTB(d)) },
		})
	}
	return ps
}

// oracleStep is one trace step with its task resolved.
type oracleStep struct {
	task     *tfg.Task
	exit     int
	target   isa.Addr
	indirect bool
}

func oracleTrace(t *testing.T, name string) []oracleStep {
	t.Helper()
	c, err := workload.CachedColumnar(name, oracleSteps)
	if err != nil {
		t.Fatal(err)
	}
	var steps []oracleStep
	src := c.Blocks()
	for {
		b, err := src.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return steps
		}
		for i := 0; i < b.N; i++ {
			ent := &b.Dict.Entries[b.TaskIdx[i]]
			e := int(b.Exits[i])
			s := oracleStep{task: ent.Task, exit: e, target: b.Dict.Entries[b.TargetIdx[i]].Addr}
			s.indirect = b.Exits[i] != trace.HaltExit && ent.Indirect[e]
			steps = append(steps, s)
		}
	}
}

// dieTape feeds the flat side's corruption hooks from a seeded die and
// replays the recorded draws to the reference side, failing on any
// difference in draw count or range.
type dieTape struct {
	t     *testing.T
	r     *rand.Rand
	draws [][2]int // {n, value}
	pos   int
}

func (d *dieTape) record(n int) int {
	v := d.r.Intn(n)
	d.draws = append(d.draws, [2]int{n, v})
	return v
}

func (d *dieTape) replay(n int) int {
	d.t.Helper()
	if d.pos >= len(d.draws) || d.draws[d.pos][0] != n {
		d.t.Fatalf("reference hook drew rnd(%d) at draw %d; flat side drew %v", n, d.pos, d.draws)
	}
	v := d.draws[d.pos][1]
	d.pos++
	return v
}

// hook runs one corruption hook on both sides and compares results and
// draws.
func (d *dieTape) hook(what string, flat, ref func(func(int) int) bool) {
	d.t.Helper()
	d.draws, d.pos = d.draws[:0], 0
	f := flat(d.record)
	r := ref(d.replay)
	if f != r || d.pos != len(d.draws) {
		d.t.Fatalf("%s: flat=%v ref=%v, draws %v, reference consumed %d", what, f, r, d.draws, d.pos)
	}
}

type exitCorrupter interface {
	CorruptCounter(func(int) int) bool
	CorruptHistory(func(int) int) bool
}

type bufCorrupter interface {
	CorruptEntry(func(int) int) bool
	CorruptHistory(func(int) int) bool
}

// corruptExits fires a random exit predictor hook on both sides.
func (d *dieTape) corruptExits(flat, ref ExitPredictor) {
	fc, ok1 := flat.(exitCorrupter)
	rc, ok2 := ref.(exitCorrupter)
	if !ok1 || !ok2 {
		return
	}
	if d.r.Intn(2) == 0 {
		d.hook("CorruptCounter", fc.CorruptCounter, rc.CorruptCounter)
	} else {
		d.hook("CorruptHistory", fc.CorruptHistory, rc.CorruptHistory)
	}
}

// corruptBufs fires a random target buffer hook on both sides.
func (d *dieTape) corruptBufs(flat, ref TargetBuffer) {
	fc, rc := flat.(bufCorrupter), ref.(bufCorrupter)
	if d.r.Intn(2) == 0 {
		d.hook("CorruptEntry", fc.CorruptEntry, rc.CorruptEntry)
	} else {
		d.hook("CorruptHistory", fc.CorruptHistory, rc.CorruptHistory)
	}
}

// oracleModes are the replay modes: -1 idealized, -2 idealized with
// faults, k >= 0 speculative update at lag k.
var oracleModes = []int{-1, -2, 1, 4, 8}

func modeName(m int) string {
	switch m {
	case -1:
		return "ideal"
	case -2:
		return "fault"
	}
	return fmt.Sprintf("spec%d", m)
}

func TestOracleRealExitPredictors(t *testing.T) {
	for _, w := range workload.All() {
		steps := oracleTrace(t, w.Name)
		for _, pair := range oracleExitPairs() {
			for _, mode := range oracleModes {
				if mode < 0 || !pair.noSpec {
					runExitOracle(t, w.Name, steps, pair, mode)
				}
			}
		}
	}
}

func runExitOracle(t *testing.T, wl string, steps []oracleStep, pair oraclePair[ExitPredictor], mode int) {
	name := fmt.Sprintf("%s/%s/%s", wl, pair.name, modeName(mode))
	flat, ref := pair.flat(), pair.ref()
	die := &dieTape{t: t, r: rand.New(rand.NewSource(int64(len(name))))}
	var fs, rs *SpecExitSession
	if mode >= 0 {
		var err error
		if fs, err = NewSpecExitSession(flat, mode); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rs, err = NewSpecExitSession(ref, mode); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	predicted, misses := 0, 0
	for i, s := range steps {
		if s.exit == int(trace.HaltExit) {
			continue
		}
		var fp, rp int
		if mode >= 0 {
			fp, rp = fs.Step(s.task, s.exit), rs.Step(s.task, s.exit)
		} else {
			fp, rp = flat.PredictExit(s.task), ref.PredictExit(s.task)
			flat.UpdateExit(s.task, s.exit)
			ref.UpdateExit(s.task, s.exit)
		}
		if fp != rp {
			t.Fatalf("%s: step %d: flat predicts %d, reference %d", name, i, fp, rp)
		}
		if f, r := flat.States(), ref.States(); f != r {
			t.Fatalf("%s: step %d: States flat %d, reference %d", name, i, f, r)
		}
		predicted++
		if fp != s.exit {
			misses++
		}
		if mode == -2 && die.r.Intn(8) == 0 {
			die.corruptExits(flat, ref)
		}
	}
	if mode >= 0 {
		fs.Finish()
		rs.Finish()
		if fs.Rollbacks() != rs.Rollbacks() || flat.States() != ref.States() {
			t.Fatalf("%s: after Finish: rollbacks %d/%d, States %d/%d", name,
				fs.Rollbacks(), rs.Rollbacks(), flat.States(), ref.States())
		}
	}
	if mode == -2 {
		return
	}
	// The block kernels (ReplayExitBlock and the spec session's exit
	// kernel included) must reproduce the lockstep totals.
	c, err := workload.CachedColumnar(wl, oracleSteps)
	if err != nil {
		t.Fatal(err)
	}
	want := ExitResult{Steps: predicted, Misses: misses, States: ref.States()}
	var res ExitResult
	if mode >= 0 {
		res, err = EvaluateExitSpecBlocks(c.Blocks(), pair.flat(), mode)
		want.Rollbacks, want.RepairFrames = rs.Rollbacks(), rs.RepairFrames()
	} else {
		res, err = EvaluateExitBlocks(c.Blocks(), pair.flat())
	}
	if err != nil {
		t.Fatal(err)
	}
	res.Name = ""
	if res != want {
		t.Fatalf("%s: blocks %+v, lockstep %+v", name, res, want)
	}
}

func TestOracleRealTaskPredictors(t *testing.T) {
	for _, w := range workload.All() {
		steps := oracleTrace(t, w.Name)
		for _, pair := range oracleTaskPairs() {
			for _, mode := range oracleModes {
				runTaskOracle(t, w.Name, steps, pair, mode)
			}
		}
	}
}

// taskParts returns a task predictor's exit predictor, RAS and buffer
// (nil where absent).
func taskParts(p TaskPredictor) (ExitPredictor, *RAS, TargetBuffer) {
	switch p := p.(type) {
	case *HeaderPredictor:
		return p.Exit(), p.RAS(), p.Buffer()
	case *CTTBOnly:
		return nil, nil, p.Buffer()
	}
	return nil, nil, nil
}

func runTaskOracle(t *testing.T, wl string, steps []oracleStep, pair oraclePair[TaskPredictor], mode int) {
	name := fmt.Sprintf("%s/%s/%s", wl, pair.name, modeName(mode))
	flat, ref := pair.flat(), pair.ref()
	fe, fras, fb := taskParts(flat)
	re, rras, rb := taskParts(ref)
	die := &dieTape{t: t, r: rand.New(rand.NewSource(int64(len(name))))}
	var fs, rs *SpecTaskSession
	if mode >= 0 {
		var err error
		if fs, err = NewSpecTaskSession(flat, mode); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rs, err = NewSpecTaskSession(ref, mode); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	states := func(i int) {
		if fe != nil && fe.States() != re.States() {
			t.Fatalf("%s: step %d: exit States flat %d, reference %d", name, i, fe.States(), re.States())
		}
		if fb != nil && fb.States() != rb.States() {
			t.Fatalf("%s: step %d: buffer States flat %d, reference %d", name, i, fb.States(), rb.States())
		}
	}
	want := TaskResult{ByKind: make(map[isa.ControlKind]KindMisses)}
	for i, s := range steps {
		if s.exit == int(trace.HaltExit) {
			continue
		}
		o := Outcome{Exit: s.exit, Target: s.target}
		var fp, rp Prediction
		if mode >= 0 {
			fp, rp = fs.Step(s.task, o), rs.Step(s.task, o)
		} else {
			fp, rp = flat.Predict(s.task), ref.Predict(s.task)
			flat.Update(s.task, o)
			ref.Update(s.task, o)
		}
		if fp != rp {
			t.Fatalf("%s: step %d: flat predicts %+v, reference %+v", name, i, fp, rp)
		}
		states(i)
		want.Steps++
		km := want.ByKind[s.task.Exits[s.exit].Kind]
		km.Steps++
		if fp.Exit >= 0 && fp.Exit != s.exit {
			want.ExitMisses++
		}
		if fp.Target != s.target {
			want.Misses++
			km.Misses++
		}
		want.ByKind[s.task.Exits[s.exit].Kind] = km
		if mode == -2 && die.r.Intn(8) == 0 {
			switch die.r.Intn(3) {
			case 0:
				if fe != nil {
					die.corruptExits(fe, re)
				}
			case 1:
				if fb != nil {
					die.corruptBufs(fb, rb)
				}
			default:
				if fras != nil {
					die.hook("RAS.Corrupt", fras.Corrupt, rras.Corrupt)
				}
			}
		}
	}
	if mode >= 0 {
		fs.Finish()
		rs.Finish()
		if fs.Rollbacks() != rs.Rollbacks() || fs.RASDamage() != rs.RASDamage() {
			t.Fatalf("%s: after Finish: rollbacks %d/%d, RAS damage %d/%d", name,
				fs.Rollbacks(), rs.Rollbacks(), fs.RASDamage(), rs.RASDamage())
		}
		states(len(steps))
		want.Rollbacks, want.RepairFrames, want.RASDamage = rs.Rollbacks(), rs.RepairFrames(), rs.RASDamage()
	}
	if mode != -2 {
		checkTaskBlocks(t, name, wl, pair, mode, want, re, rb)
	}
}

// checkTaskBlocks replays the lockstep's prefix through the block
// kernels — EvaluateTaskBlocks for the idealized mode, EvaluateTaskSpecBlocks
// at the lockstep's lag — on a fresh flat predictor, and requires the
// lockstep's totals, per-kind accounting, spec repair counters and the
// reference components' final States.
func checkTaskBlocks(t *testing.T, name, wl string, pair oraclePair[TaskPredictor], mode int, want TaskResult, re ExitPredictor, rb TargetBuffer) {
	t.Helper()
	c, err := workload.CachedColumnar(wl, oracleSteps)
	if err != nil {
		t.Fatal(err)
	}
	p := pair.flat()
	var res TaskResult
	if mode >= 0 {
		res, err = EvaluateTaskSpecBlocks(c.Blocks(), p, mode)
	} else {
		res, err = EvaluateTaskBlocks(c.Blocks(), p)
	}
	if err != nil {
		t.Fatal(err)
	}
	res.Name = ""
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("%s: blocks %+v, lockstep %+v", name, res, want)
	}
	fe, _, fb := taskParts(p)
	if fe != nil && fe.States() != re.States() {
		t.Fatalf("%s: blocks exit States %d, lockstep %d", name, fe.States(), re.States())
	}
	if fb != nil && fb.States() != rb.States() {
		t.Fatalf("%s: blocks buffer States %d, lockstep %d", name, fb.States(), rb.States())
	}
}

// TestOracleRealTargetBuffers drives the CTTBs as bare target buffers
// (the Lookup/Train/Advance contract of the indirect-exit studies).
func TestOracleRealTargetBuffers(t *testing.T) {
	for _, w := range workload.All() {
		steps := oracleTrace(t, w.Name)
		for _, d := range oracleCTTBDOLC {
			for _, faults := range []bool{false, true} {
				name := fmt.Sprintf("%s/cttb:%v/faults=%v", w.Name, d, faults)
				flat, ref := MustCTTB(d), newRefCTTB(d)
				die := &dieTape{t: t, r: rand.New(rand.NewSource(int64(len(name))))}
				predicted, misses := 0, 0
				for i, s := range steps {
					if s.indirect {
						ft, fok := flat.Lookup(s.task.Start)
						rt, rok := ref.Lookup(s.task.Start)
						if ft != rt || fok != rok {
							t.Fatalf("%s: step %d: flat (%v,%v), reference (%v,%v)", name, i, ft, fok, rt, rok)
						}
						predicted++
						if !fok || ft != s.target {
							misses++
						}
						flat.Train(s.task.Start, s.target)
						ref.Train(s.task.Start, s.target)
					}
					flat.Advance(s.task.Start)
					ref.Advance(s.task.Start)
					if flat.States() != ref.States() {
						t.Fatalf("%s: step %d: States flat %d, reference %d", name, i, flat.States(), ref.States())
					}
					if faults && die.r.Intn(8) == 0 {
						die.corruptBufs(flat, ref)
					}
				}
				if !faults {
					// ReplayTargetBlock must reproduce the lockstep totals.
					c, err := workload.CachedColumnar(w.Name, oracleSteps)
					if err != nil {
						t.Fatal(err)
					}
					res, err := EvaluateIndirectBlocks(c.Blocks(), MustCTTB(d))
					if err != nil {
						t.Fatal(err)
					}
					if res.Steps != predicted || res.Misses != misses || res.States != ref.States() {
						t.Fatalf("%s: blocks %d steps %d misses %d states, lockstep %d %d %d", name,
							res.Steps, res.Misses, res.States, predicted, misses, ref.States())
					}
				}
			}
		}
	}
}
