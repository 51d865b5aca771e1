package engine

import (
	"errors"
	"fmt"
	"runtime/debug"

	"multiscalar/internal/core"
	"multiscalar/internal/fault"
	"multiscalar/internal/obs"
	"multiscalar/internal/sim/timing"
	"multiscalar/internal/trace"
	"multiscalar/internal/workload"
)

// Mode selects how a run evaluates its spec.
type Mode uint8

const (
	// ModeAuto derives the mode from the spec's class: exit specs replay
	// exit prediction, target specs replay indirect-target prediction,
	// task specs replay full task prediction, and perfect runs the timing
	// model.
	ModeAuto Mode = iota
	// ModeExit replays exit prediction over every trace step.
	ModeExit
	// ModeTarget replays target prediction over indirect exits.
	ModeTarget
	// ModeTask replays full task (next-address) prediction.
	ModeTask
	// ModeTiming runs the ring timing model instead of a trace replay.
	ModeTiming
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeExit:
		return "exit"
	case ModeTarget:
		return "target"
	case ModeTask:
		return "task"
	case ModeTiming:
		return "timing"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Run is one cell of an evaluation grid: one workload replayed under one
// predictor spec. The zero values of Mode, Fault, MaxSteps and
// TimingSteps mean auto-derived mode, no injection, the full trace, and
// the timing model's default budget.
type Run struct {
	// Workload is the workload name (workload.ByName).
	Workload string
	// Spec is the predictor spec string (Parse).
	Spec string
	// Mode overrides the spec-derived evaluation mode (e.g. ModeTask to
	// evaluate a bare cttb: spec as a CTTB-only task predictor).
	Mode Mode
	// Fault is a fault-injection spec (fault.ParseSpec; "" = off). Only
	// task and timing runs can inject — the injector wraps a full task
	// predictor. A faulted task run replays the columnar cache block by
	// block under fault.ReplayTask, which holds it to the recovery
	// invariants: the oracle's step count, an unchanged column checksum
	// and revalidation against the TFG.
	Fault string
	// MaxSteps truncates the trace (0 = full; replay modes only).
	MaxSteps int
	// TimingSteps bounds the timing run (ModeTiming only; 0 = the timing
	// model's default).
	TimingSteps int
	// Stream replays against a generated-on-the-fly block stream instead
	// of a cached trace: functional simulation pipelines into the replay
	// kernels and the full trace is never resident, so step counts can
	// exceed memory. Replay modes only; streaming runs cannot inject
	// faults (the recovery checks checksum and revalidate the whole
	// trace before and after the replay, so it must be resident).
	Stream bool
	// Label optionally names the run in formatted output; Result.Label
	// falls back to the canonical spec string.
	Label string
	// Status, when non-nil, receives live progress: the expected step
	// total once the trace length is known and per-block step credits as
	// the replay advances. It is a pure side channel — results are
	// byte-identical with or without it (the invariance test pins this).
	Status *obs.RunStatus
}

// Result is one run's outcome. Exactly one of Exit, Target, Task, Timing
// is meaningful, matching the resolved mode; Err reports parse, build,
// run, or invariant failures (recovered panics come back as
// *fault.PanicError, never crash the scheduler).
type Result struct {
	// Run echoes the submitted run.
	Run Run
	// Spec is the parsed spec (nil when parsing failed).
	Spec *Spec
	// Err is nil on success.
	Err error
	// Exit is the exit-prediction result (ModeExit).
	Exit core.ExitResult
	// Target is the indirect-target result (ModeTarget).
	Target core.TargetResult
	// Task is the task-prediction result (ModeTask).
	Task core.TaskResult
	// Timing is the ring-model result (ModeTiming).
	Timing timing.Result
	// Injection is the fault injector's activity (faulted runs).
	Injection fault.Stats
	// Faulted reports that injection was enabled.
	Faulted bool
}

// Label returns the run's display label: the explicit label when set,
// else the canonical spec string.
func (r *Result) Label() string {
	if r.Run.Label != "" {
		return r.Run.Label
	}
	if r.Spec != nil {
		return r.Spec.String()
	}
	return r.Run.Spec
}

// Do executes one run synchronously. All failure modes — unparseable
// specs, build errors, injection invariant violations, and panics inside
// a predictor — come back in Result.Err.
func Do(r Run) Result {
	res := Result{Run: r}
	res.Err = run(r, &res)
	return res
}

// run is Do's body; the named return lets the deferred recover convert
// predictor panics into structured errors.
func run(r Run, res *Result) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &fault.PanicError{Value: v, Stack: string(debug.Stack())}
		}
	}()

	sp, err := Parse(r.Spec)
	if err != nil {
		return err
	}
	res.Spec = sp
	fs, err := fault.ParseSpec(r.Fault)
	if err != nil {
		return err
	}

	mode := r.Mode
	if mode == ModeAuto {
		switch sp.Class() {
		case ClassExit:
			mode = ModeExit
		case ClassTarget:
			mode = ModeTarget
		case ClassTask:
			mode = ModeTask
		case ClassPerfect:
			mode = ModeTiming
		}
	}
	if fs.Enabled() && mode != ModeTask && mode != ModeTiming {
		return &UnsupportedError{Feature: "fault injection",
			Reason: fmt.Sprintf("wraps a task predictor; %s runs cannot inject", mode)}
	}

	// Speculative update (the :spec flag) drives exit/task prediction
	// sessions and the timing model; every other combination is refused
	// explicitly so a spec run is never silently idealized.
	if sp.SpecUpdate() {
		if mode == ModeTarget {
			return &UnsupportedError{Feature: "speculative update",
				Reason: "target replay has no prediction-time training to speculate; spec applies to exit, task and timing runs"}
		}
		if fs.Enabled() {
			return &UnsupportedError{Feature: "fault injection",
				Reason: "the injector wrapper cannot checkpoint predictor state; speculative-update runs cannot inject"}
		}
	}

	if r.Stream && mode == ModeTiming {
		return &UnsupportedError{Feature: "streaming replay",
			Reason: "the timing model replays a recorded task-path stream, not a block stream; timing runs cannot stream"}
	}
	if r.Stream && fs.Enabled() {
		return &UnsupportedError{Feature: "streaming replay",
			Reason: "the recovery checks checksum and revalidate the whole trace around the replay; streaming runs cannot inject"}
	}

	if mode == ModeTiming {
		if _, err := workload.ByName(r.Workload); err != nil {
			return err
		}
		pred, err := sp.BuildTask()
		if err != nil {
			return err
		}
		var inj *fault.Injector
		if fs.Enabled() {
			// The perfect predictor is the timing model's built-in oracle
			// (pred == nil): there is no predictor state to corrupt, so a
			// fault spec here would silently do nothing. Refuse it
			// explicitly, like the replay modes do.
			if pred == nil {
				return &UnsupportedError{Feature: "fault injection",
					Reason: "wraps a task predictor; perfect timing runs have no predictor state to inject into"}
			}
			if inj, err = fault.New(fs, pred); err != nil {
				return err
			}
			pred, res.Faulted = inj, true
		}
		// Every timing run of a workload replays one memoized recording
		// of its task stream; the total is known before the replay.
		paths, err := workload.CachedPaths(r.Workload, r.TimingSteps)
		if err != nil {
			return err
		}
		r.Status.SetTotal(int64(paths.Len()))
		cfg := timing.Config{
			SpecUpdate:    sp.SpecUpdate(),
			SpecLag:       sp.SpecLag(),
			RepairLatency: sp.RepairLat(),
		}
		if st := r.Status; st != nil {
			cfg.Progress = func(tasks int) { st.AddSteps(int64(tasks)) }
		}
		tres, err := timing.Replay(paths, pred, cfg)
		if err != nil {
			return err
		}
		res.Timing = tres
		if inj != nil {
			res.Injection = inj.Stats()
		}
		return nil
	}

	if r.Stream {
		// Pipelined generation→replay: the functional simulator produces
		// one block at a time and the kernels consume it; the full trace
		// is never resident.
		src, err := workload.StreamBlocks(r.Workload, r.MaxSteps, 1)
		if err != nil {
			return err
		}
		if r.MaxSteps > 0 {
			r.Status.SetTotal(int64(r.MaxSteps))
		}
		return replayBlocks(sp, mode, WithProgress(src, r.Status), res)
	}

	// Every cached replay, faulted or not, runs block-wise over the
	// columnar cache.
	c, err := workload.CachedColumnar(r.Workload, r.MaxSteps)
	if errors.Is(err, trace.ErrNotColumnar) {
		return &UnsupportedError{Feature: "trace encoding",
			Reason: fmt.Sprintf("replay runs over columnar traces only, and %s's trace does not encode (%v)", r.Workload, err)}
	}
	if err != nil {
		return err
	}
	r.Status.SetTotal(int64(c.Len()))
	src := WithProgress(c.Blocks(), r.Status)
	if fs.Enabled() {
		return replayFaulted(sp, fs, c, src, res)
	}
	return replayBlocks(sp, mode, src, res)
}

// replayFaulted evaluates one faulted task run: the spec's task
// predictor, wrapped in fault injection, replays src (the blocks of the
// oracle c) under fault.ReplayTask's recovery invariants. Panics are
// caught by run's recover and surface as *fault.PanicError.
func replayFaulted(sp *Spec, fs fault.Spec, c *trace.Columnar, src trace.BlockSource, res *Result) error {
	p, err := sp.BuildTask()
	if err != nil {
		return err
	}
	if p == nil {
		return &UnsupportedError{Feature: "perfect predictor",
			Reason: "only meaningful in timing runs (it has no replayable state)"}
	}
	inj, err := fault.New(fs, p)
	if err != nil {
		return err
	}
	res.Task, err = fault.ReplayTask(c, src, inj)
	res.Injection, res.Faulted = inj.Stats(), true
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}

// replayBlocks evaluates one replay-mode run through the block-wise
// kernels over any block source (columnar cache cursor or generated
// stream).
func replayBlocks(sp *Spec, mode Mode, src trace.BlockSource, res *Result) error {
	switch mode {
	case ModeExit:
		p, err := sp.BuildExit()
		if err != nil {
			return err
		}
		if sp.SpecUpdate() {
			res.Exit, err = core.EvaluateExitSpecBlocks(src, p, sp.SpecLag())
			return err
		}
		res.Exit, err = core.EvaluateExitBlocks(src, p)
		return err
	case ModeTarget:
		b, err := sp.BuildTarget()
		if err != nil {
			return err
		}
		res.Target, err = core.EvaluateIndirectBlocks(src, b)
		return err
	case ModeTask:
		p, err := sp.BuildTask()
		if err != nil {
			return err
		}
		if p == nil {
			return &UnsupportedError{Feature: "perfect predictor",
				Reason: "only meaningful in timing runs (it has no replayable state)"}
		}
		if sp.SpecUpdate() {
			res.Task, err = core.EvaluateTaskSpecBlocks(src, p, sp.SpecLag())
			return err
		}
		res.Task, err = core.EvaluateTaskBlocks(src, p)
		return err
	}
	return fmt.Errorf("engine: block replay does not support mode %s", mode)
}
