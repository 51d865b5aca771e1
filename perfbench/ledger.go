package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/engine"
	"multiscalar/internal/experiments"
	"multiscalar/internal/msl"
	"multiscalar/internal/obs"
	"multiscalar/internal/sim/functional"
	"multiscalar/internal/sim/timing"
	"multiscalar/internal/taskform"
	"multiscalar/internal/trace"
	"multiscalar/internal/workload"
)

// layerReps is how many times the traced run repeats each layer
// measurement; it reports the median.
const layerReps = 3

// reconcileTolerance is how far the traced 1-worker runner seconds of a
// workload may sit from its untraced cpu_s (as a share of cpu_s) for the
// ledger to count as reconciled. The gap is the tracing overhead less
// the CPU a parallel pass adds: two busy workers share caches and memory
// bandwidth and collect more garbage concurrently. On a 2-CPU host it
// measured from -22% (real-grid) to +20% (spec-timing).
const reconcileTolerance = 0.3

// layerMetrics are the traced run's metrics, in print order.
var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []metricDef {
	defs := []metricDef{
		{"msl.compile_ms", "ms", false},
		{"taskform.partition_ms", "ms", false},
		{"functional.ns_per_step", "ns/step", false},
		{"functional.minstr_per_s", "Minstr/s", true},
		{"trace.encode_ns_per_step", "ns/step", false},
		{"trace.bytes_per_step", "B/step", false},
		{"workload.cache_mib", "MiB", false},
		{"workload.simulations", "count", false},
		{"engine.build_us", "us/spec", false},
		{"core.loop.ns_per_step", "ns/step", false},
		{"core.loop_target.ns_per_step", "ns/step", false},
		{"core.loop_task.ns_per_step", "ns/step", false},
	}
	for _, f := range families() {
		defs = append(defs,
			metricDef{"core." + f.name + ".ns_per_step", "ns/step", false},
			metricDef{"core." + f.name + ".allocs_per_run", "allocs/run", false})
	}
	defs = append(defs,
		metricDef{"core.spec.rollbacks_per_kstep", "1/kstep", false},
		metricDef{"core.spec.ksteps", "kstep", true},
		metricDef{"core.spec.repair_frames_per_rollback", "frames", false},
		metricDef{"core.spec.rollbacks", "count", false},
		metricDef{"timing.perfect.ns_per_task", "ns/task", false},
		metricDef{"timing.composed.ns_per_task", "ns/task", false},
		metricDef{"timing.composed_spec.ns_per_task", "ns/task", false},
		metricDef{"timing.composed.allocs_per_run", "allocs/run", false},
		metricDef{"timing.repair_cycle_frac", "fraction", false},
		metricDef{"timing.composed_spec.kcycles", "kcycle", false},
		metricDef{"engine.parallel_eff", "fraction", true},
		metricDef{"runtime.alloc_mib", "MiB", false},
		metricDef{"runtime.gc_cpu_s", "s", false},
	)
	for _, w := range workloads {
		for _, name := range w.runners {
			defs = append(defs, metricDef{"experiments." + name + "_s", "s", false})
		}
	}
	for _, w := range workloads {
		defs = append(defs, metricDef{"cells." + w.name + ".cell_s", "s", false})
		for _, c := range w.classes {
			defs = append(defs, metricDef{"cells." + w.name + "." + c + "_s", "s", false})
		}
	}
	return append(defs,
		metricDef{"ledger.runner_sum_s", "s", false},
		metricDef{"ledger.untraced_cpu_s", "s", false},
		metricDef{"ledger.tracing_overhead", "fraction", false},
	)
}

// ledger carries the traced run's state: the report being filled and
// the tracer holding the benchmark's spans (lane 0) and, during the
// runner pass, the engine's run spans.
type ledger struct {
	rep     *report
	tracer  *obs.Tracer
	stepCap int
	cols    []*trace.Columnar
	steps   int // prediction steps over the five cached traces
	// shares is each workload's cell time per class, as a share of its
	// total engine-cell time.
	shares map[string]map[string]float64
}

// span records one benchmark span around a public call.
func (l *ledger) span(name string, start time.Time) time.Duration {
	d := time.Since(start)
	l.tracer.Complete(name, "perfbench", 0, start, d, nil)
	return d
}

// tracedRun measures the per-layer ledger: set-up layers, the replay
// loop floor, each predictor family, the timing model, and every
// experiment runner traced at one worker, reconciled against an
// untraced pass of workload w. It measures a fixed amount of work.
func tracedRun(w benchWorkload, stepCap int, outDir string) (*report, error) {
	if err := checkFamilies(); err != nil {
		return nil, err
	}
	want, err := committedDigests(stepCap)
	if err != nil {
		return nil, err
	}
	l := &ledger{rep: newReport(), tracer: obs.NewTracer(), stepCap: stepCap,
		shares: map[string]map[string]float64{}}
	steps := []func() error{
		l.setupLayers, l.caches, l.buildCost, l.loopFloor, l.familyCosts, l.timingCosts,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	untracedCPU := l.untracedPass(w, want)
	l.runnerPass(want)
	l.reconcile(w, untracedCPU)
	l.designChecks()
	l.rep.set("workload.simulations", float64(workload.Simulations()))

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "perfbench-trace-"+w.name+".json")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := l.tracer.WriteJSON(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fmt.Printf("perfbench: %d spans written to %s\n", l.tracer.Len(), path)
	return l.rep, nil
}

// setupLayers times compile, task formation, functional simulation and
// columnar encoding of the five programs on fresh objects, exactly as
// the trace cache builds them: simulation in trace.BlockSteps segments
// up to the cap, each segment appended to a columnar encoder.
func (l *ledger) setupLayers() error {
	var compile, partition, sim, encode []float64
	var steps int
	var instrs uint64
	for rep := 0; rep < layerReps; rep++ {
		var c, p, s, e time.Duration
		steps, instrs = 0, 0
		for _, wl := range workload.All() {
			t := clock()
			prog, err := msl.Compile(wl.Source, msl.Options{})
			if err != nil {
				return fmt.Errorf("%s: %w", wl.Name, err)
			}
			c += l.span("msl.Compile "+wl.Name, t)

			t = clock()
			g, err := taskform.Partition(prog, taskform.Options{})
			if err != nil {
				return fmt.Errorf("%s: %w", wl.Name, err)
			}
			p += l.span("taskform.Partition "+wl.Name, t)

			t = clock()
			m := functional.NewMachine(g, functional.Config{})
			var segs [][]trace.Step
			for n := 0; n < l.stepCap; {
				seg, err := m.Run(functional.Config{MaxSteps: min(trace.BlockSteps, l.stepCap-n)})
				if err != nil {
					return fmt.Errorf("%s: %w", wl.Name, err)
				}
				segs = append(segs, seg.Steps)
				n += len(seg.Steps)
				if m.Stats().Halted || len(seg.Steps) == 0 {
					break
				}
			}
			s += l.span("functional.Machine.Run "+wl.Name, t)
			instrs += m.Stats().Instrs

			t = clock()
			enc := trace.NewEncoder(g)
			for _, seg := range segs {
				if err := enc.Append(seg); err != nil {
					return fmt.Errorf("%s: %w", wl.Name, err)
				}
			}
			steps += enc.Finish().Len()
			e += l.span("trace.Encoder "+wl.Name, t)
		}
		compile = append(compile, float64(c)/1e6)
		partition = append(partition, float64(p)/1e6)
		sim = append(sim, float64(s))
		encode = append(encode, float64(e))
	}
	simNs := median(sim)
	l.rep.set("msl.compile_ms", median(compile))
	l.rep.set("taskform.partition_ms", median(partition))
	l.rep.set("functional.ns_per_step", simNs/float64(steps))
	l.rep.set("functional.minstr_per_s", float64(instrs)/simNs*1e3)
	l.rep.set("trace.encode_ns_per_step", median(encode)/float64(steps))
	return nil
}

// caches fills the process-wide trace caches (the untraced run's
// set-up) and reports their size.
func (l *ledger) caches() error {
	t := clock()
	if _, err := setup(l.stepCap); err != nil {
		return err
	}
	l.span("workload.CachedColumnar (5 programs)", t)
	bytes, n := 0, 0
	for _, name := range workload.Names() {
		c, err := workload.CachedColumnar(name, l.stepCap)
		if err != nil {
			return err
		}
		l.cols = append(l.cols, c)
		bytes += c.Footprint()
		n += c.Len()
		l.steps += c.PredictionSteps()
	}
	l.rep.set("trace.bytes_per_step", float64(bytes)/float64(n))
	l.rep.set("workload.cache_mib", float64(bytes)/(1<<20))
	return nil
}

// buildCost times engine.Parse plus the class's Build for every spec
// the experiment grids use.
func (l *ledger) buildCost() error {
	specs := experiments.AllSpecs()
	var per []float64
	for rep := 0; rep < layerReps; rep++ {
		t := clock()
		for _, s := range specs {
			sp, err := engine.Parse(s)
			if err != nil {
				return err
			}
			switch sp.Class() {
			case engine.ClassExit:
				_, err = sp.BuildExit()
			case engine.ClassTarget:
				_, err = sp.BuildTarget()
			default:
				_, err = sp.BuildTask()
			}
			if err != nil {
				return fmt.Errorf("%s: %w", s, err)
			}
		}
		d := l.span("engine.Parse+Build (AllSpecs)", t)
		per = append(per, float64(d)/1e3/float64(len(specs)))
	}
	l.rep.set("engine.build_us", median(per))
	return nil
}

// loopFloor replays the probes through the three block kernels.
func (l *ledger) loopFloor() error {
	kernels := []struct {
		metric string
		replay func(c *trace.Columnar) error
	}{
		{"core.loop.ns_per_step", func(c *trace.Columnar) error {
			_, err := core.EvaluateExitBlocks(c.Blocks(), &probeExit{})
			return err
		}},
		{"core.loop_target.ns_per_step", func(c *trace.Columnar) error {
			_, err := core.EvaluateIndirectBlocks(c.Blocks(), &probeTarget{})
			return err
		}},
		{"core.loop_task.ns_per_step", func(c *trace.Columnar) error {
			_, err := core.EvaluateTaskBlocks(c.Blocks(), &probeTask{})
			return err
		}},
	}
	for _, k := range kernels {
		var ns []float64
		for rep := 0; rep < layerReps; rep++ {
			t := clock()
			for _, c := range l.cols {
				if err := k.replay(c); err != nil {
					return err
				}
			}
			ns = append(ns, float64(l.span(k.metric, t)))
		}
		l.rep.set(k.metric, median(ns)/float64(l.steps))
	}
	return nil
}

// familyCosts replays each family's representative spec over the five
// programs through engine.Do, one untimed warm-up round first (the
// faulted family materializes its traces there). Mallocs deltas are
// exact: nothing else runs in the process.
func (l *ledger) familyCosts() error {
	var rollbacks, frames, specSteps int
	for _, f := range families() {
		var ns, allocs []float64
		for rep := 0; rep <= layerReps; rep++ {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			t := clock()
			for _, name := range workload.Names() {
				res := engine.Do(engine.Run{Workload: name, Spec: f.spec, Mode: f.mode,
					Fault: f.fault, MaxSteps: l.stepCap})
				if res.Err != nil {
					return fmt.Errorf("%s on %s: %w", f.name, name, res.Err)
				}
				if rep == layerReps && strings.HasSuffix(f.name, "_spec") {
					rollbacks += res.Exit.Rollbacks + res.Task.Rollbacks
					frames += res.Exit.RepairFrames + res.Task.RepairFrames
					specSteps += res.Exit.Steps + res.Task.Steps
				}
			}
			d := l.span("engine.Do "+f.name, t)
			runtime.ReadMemStats(&ms1)
			if rep == 0 {
				continue
			}
			ns = append(ns, float64(d))
			allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(len(workload.Names())))
		}
		l.rep.set("core."+f.name+".ns_per_step", median(ns)/float64(l.steps))
		l.rep.set("core."+f.name+".allocs_per_run", median(allocs))
	}
	l.rep.set("core.spec.rollbacks", float64(rollbacks))
	l.rep.set("core.spec.ksteps", float64(specSteps)/1e3)
	l.rep.set("core.spec.rollbacks_per_kstep", 1e3*float64(rollbacks)/float64(specSteps))
	l.rep.set("core.spec.repair_frames_per_rollback", float64(frames)/float64(rollbacks))
	return nil
}

// timingCosts runs the ring timing model over the five programs at the
// benchmark's budget under the perfect, standard composed and
// speculative-update composed predictors.
func (l *ledger) timingCosts() error {
	std := experiments.StdSpec()
	cfgs := []struct {
		name string
		spec string // "" = perfect (nil predictor)
	}{
		{"perfect", ""},
		{"composed", std},
		{"composed_spec", std + ":spec:rlat8"},
	}
	for _, c := range cfgs {
		var ns, allocs []float64
		var cycles, repair uint64
		for rep := 0; rep < layerReps; rep++ {
			cfg := timing.Config{MaxSteps: timingSteps}
			preds := make([]core.TaskPredictor, len(workload.Names()))
			if c.spec != "" {
				sp, err := engine.Parse(c.spec)
				if err != nil {
					return err
				}
				for i := range preds {
					if preds[i], err = sp.BuildTask(); err != nil {
						return err
					}
				}
				cfg.SpecUpdate, cfg.SpecLag, cfg.RepairLatency = sp.SpecUpdate(), sp.SpecLag(), sp.RepairLat()
			}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			t := clock()
			tasks := 0
			cycles, repair = 0, 0
			for i, wl := range workload.All() {
				g, err := wl.Graph()
				if err != nil {
					return err
				}
				res, err := timing.Run(g, preds[i], cfg)
				if err != nil {
					return fmt.Errorf("timing %s on %s: %w", c.name, wl.Name, err)
				}
				tasks += res.Tasks
				cycles += res.Cycles
				repair += res.RepairCycles
			}
			d := l.span("timing.Run "+c.name, t)
			runtime.ReadMemStats(&ms1)
			ns = append(ns, float64(d)/float64(tasks))
			allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(len(workload.Names())))
		}
		l.rep.set("timing."+c.name+".ns_per_task", median(ns))
		switch c.name {
		case "composed":
			l.rep.set("timing.composed.allocs_per_run", median(allocs))
		case "composed_spec":
			l.rep.set("timing.repair_cycle_frac", float64(repair)/float64(cycles))
			l.rep.set("timing.composed_spec.kcycles", float64(cycles)/1e3)
		}
	}
	return nil
}

// gcCPUSeconds reads the runtime's cumulative GC CPU time.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// untracedPasses is how many untraced passes the traced run makes of its
// own workload; it reports their medians.
const untracedPasses = 3

// untracedPass runs workload w's runners at nproc workers with tracing
// off, as the end-to-end run does, and returns the median CPU seconds of
// a pass.
func (l *ledger) untracedPass(w benchWorkload, want map[string]string) float64 {
	var walls, cpus, allocs, gcs []float64
	for i := 0; i < untracedPasses; i++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		gc0 := gcCPUSeconds()
		t := clock()
		p := runPass(w, l.stepCap, nproc(), want, l.rep)
		l.span("untraced pass "+w.name, t)
		runtime.ReadMemStats(&ms1)
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		gcs = append(gcs, gcCPUSeconds()-gc0)
	}
	cpu := median(cpus)
	l.rep.set("engine.parallel_eff", cpu/(float64(nproc())*median(walls)))
	l.rep.set("runtime.alloc_mib", median(allocs))
	l.rep.set("runtime.gc_cpu_s", median(gcs))
	return cpu
}

// runnerPass renders every runner of every workload at one worker with
// observability on, timing each runner and attributing the engine's run
// spans to families and classes.
func (l *ledger) runnerPass(want map[string]string) {
	obs.SetTracer(l.tracer)
	obs.SetEnabled(true)
	defer func() {
		obs.SetEnabled(false)
		obs.SetTracer(nil)
	}()
	for _, w := range workloads {
		cells := map[string]float64{}
		famCells := map[string]float64{}
		total := 0.0
		for _, name := range w.runners {
			first := l.tracer.Len()
			t := clock()
			l.rep.op(checkedRender(name, expConfig(l.stepCap, 1), want))
			l.rep.set("experiments."+name+"_s", l.span("experiments."+name, t).Seconds())
			for _, ev := range l.tracer.Events()[first:] {
				if !strings.HasPrefix(ev.Name, "run ") {
					continue
				}
				spec, _ := ev.Args["spec"].(string)
				mode, _ := ev.Args["mode"].(string)
				fam := familyOf(spec, mode, name == "fault-sweep")
				sec := float64(ev.Dur) / 1e6
				famCells[fam] += sec
				cells[classOf(fam)] += sec
				total += sec
			}
		}
		l.rep.set("cells."+w.name+".cell_s", total)
		for _, c := range w.classes {
			l.rep.set("cells."+w.name+"."+c+"_s", cells[c])
		}
		l.shares[w.name] = map[string]float64{}
		for c, sec := range cells {
			l.shares[w.name][c] = sec / total
		}
		fams := make([]string, 0, len(famCells))
		for f := range famCells {
			fams = append(fams, f)
		}
		sort.Slice(fams, func(i, j int) bool { return famCells[fams[i]] > famCells[fams[j]] })
		var parts []string
		for _, f := range fams {
			parts = append(parts, fmt.Sprintf("%s %.0f%%", f, 100*famCells[f]/total))
		}
		fmt.Printf("cells %s: %.2fs in engine runs: %s\n", w.name, total, strings.Join(parts, ", "))
	}
}

// reconcile compares workload w's traced runner seconds with its
// untraced CPU seconds.
func (l *ledger) reconcile(w benchWorkload, untracedCPU float64) {
	sum := 0.0
	for _, name := range w.runners {
		sum += l.rep.values["experiments."+name+"_s"]
	}
	overhead := sum/untracedCPU - 1
	l.rep.set("ledger.runner_sum_s", sum)
	l.rep.set("ledger.untraced_cpu_s", untracedCPU)
	l.rep.set("ledger.tracing_overhead", overhead)
	verdict := "reconciled"
	if overhead > reconcileTolerance || overhead < -reconcileTolerance {
		verdict = "NOT reconciled"
	}
	fmt.Printf("ledger %s: traced runners sum to %.2fs at 1 worker, untraced cpu_s %.2fs: %+.1f%% (tolerance ±%.0f%%): %s\n",
		w.name, sum, untracedCPU, 100*overhead, 100*reconcileTolerance, verdict)
}

// claim is one design check of the workloads.
type claim struct {
	text string
	ok   bool
}

// designChecks prints whether each workload's cell time falls where the
// workload was built to put it.
func (l *ledger) designChecks() {
	sh := l.shares
	checks := []claim{
		{"ideal families carry most of ideal-grid's cell time", sh["ideal-grid"]["ideal"] > 0.5},
		{"ideal families carry under 10% of real-grid's cell time", sh["real-grid"]["ideal"] < 0.1},
		{"ideal families carry none of spec-timing's cell time", sh["spec-timing"]["ideal"] == 0},
		{"timing and spec families carry most of spec-timing's cell time",
			sh["spec-timing"]["timing"]+sh["spec-timing"]["spec"] > 0.5},
	}
	for _, w := range workloads {
		declared := true
		for c, share := range sh[w.name] {
			if share > 0 && !slices.Contains(w.classes, c) {
				declared = false
			}
		}
		checks = append(checks, claim{fmt.Sprintf("%s cells fall only in classes %v", w.name, w.classes), declared})
	}
	for _, c := range checks {
		mark := "holds"
		if !c.ok {
			mark = "DOES NOT HOLD"
		}
		fmt.Printf("design: %s: %s\n", c.text, mark)
	}
}
