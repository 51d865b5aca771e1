package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"multiscalar/internal/workload"
)

// setupSamples is how many fresh processes measure set-up per run; the
// run's own set-up is one more sample.
const setupSamples = 8

// minPasses is the fewest measured passes a run reports a median over.
const minPasses = 3

// clock reads the wall clock for the benchmark's timers.
func clock() time.Time {
	return time.Now() //detlint:allow det-time (benchmark timer; never feeds rendered output)
}

// setup fills the process-wide trace caches the runners replay: it
// compiles, task-forms, simulates and column-encodes the five programs at
// the cap, through workload.CachedColumnar. Only the first call in a
// process does that work, so each sample needs a fresh process.
func setup(stepCap int) (time.Duration, error) {
	start := clock()
	for _, name := range workload.Names() {
		if _, err := workload.CachedColumnar(name, stepCap); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// setupInChild measures setup in a fresh child process and waits for it.
func setupInChild(stepCap int) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-setup-child", strconv.Itoa(stepCap))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("set-up child printed %q: %w", out, err)
	}
	return v, nil
}

// rusage returns the process's resource usage.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return ru
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB returns the process's lifetime peak resident set (Linux
// reports ru_maxrss in KiB).
func maxRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

// heapObjectsBytes reads the bytes held by heap objects: live ones and
// dead ones the garbage collector has not yet swept.
func heapObjectsBytes(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampleEvery is how often a sampled pass reads the heap.
const heapSampleEvery = time.Millisecond

// pass is one run of every runner of a workload.
type pass struct {
	wall, cpu time.Duration
}

// runPass renders every runner of w once at the given worker count,
// recording one operation per runner. It first returns the previous
// pass's garbage to the OS, untimed, so every pass starts from the same
// heap.
func runPass(w benchWorkload, stepCap, workers int, want map[string]string, rep *report) pass {
	debug.FreeOSMemory()
	cfg := expConfig(stepCap, workers)
	wall0, cpu0 := clock(), cpuTime()
	for _, name := range w.runners {
		rep.op(checkedRender(name, cfg, want))
	}
	return pass{wall: time.Since(wall0), cpu: cpuTime() - cpu0}
}

// sampledPass is runPass at GOMAXPROCS 1 with the heap sampled every
// heapSampleEvery; it returns the peak of heap objects in MiB.
//
// The peak depends on whether a large table (ablation-folding allocates
// 2M-entry PHTs) is allocated while a collection is marking: if so it
// counts as live for that cycle and the next heap goal doubles. At
// GOMAXPROCS 2 the background mark worker runs on its own thread, so how
// far marking gets before the allocation depends on how the host
// schedules that thread, and real-grid's peak jumps between about 120
// and 200 MiB with the neighbours' load. At GOMAXPROCS 1 the mark worker
// shares the mutator's thread, the runtime alone decides how the two
// interleave, and a seed's peak repeats on a loaded or idle host.
func sampledPass(w benchWorkload, stepCap, workers int, want map[string]string, rep *report) float64 {
	samples := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				peak = max(peak, heapObjectsBytes(samples))
			}
		}
	}()
	procs := runtime.GOMAXPROCS(1)
	runPass(w, stepCap, workers, want, rep)
	runtime.GOMAXPROCS(procs)
	close(stop)
	wg.Wait()
	return float64(max(peak, heapObjectsBytes(samples))) / (1 << 20)
}

// endToEnd is the untraced run: set-up sampled in fresh processes, then
// passes over the workload's runners until the time budget is spent.
//
// The first pass runs at one worker and is not timed. It warms lazily
// built state (materialized trace views), and its sampled heap peak is
// peak_heap_mib, the peak of a fresh process's first pass: at nproc
// workers the peak depends on which large-table cells happen to overlap
// and varies by a third from pass to pass, while at one worker it
// repeats. wall_s and cpu_s are medians over the later passes, which run
// at nproc workers.
func endToEnd(w benchWorkload, stepCap int, budget time.Duration) (*report, error) {
	want, err := committedDigests(stepCap)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		v, err := setupInChild(stepCap)
		if err != nil {
			return nil, err
		}
		setups = append(setups, v)
	}
	d, err := setup(stepCap)
	if err != nil {
		return nil, err
	}
	setups = append(setups, d.Seconds())

	rep := newReport()
	start := clock()
	peak := sampledPass(w, stepCap, 1, want, rep)
	var walls, cpus []float64
	for len(walls) < minPasses || time.Since(start) < budget {
		p := runPass(w, stepCap, nproc(), want, rep)
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
	}
	fmt.Printf("perfbench: %d set-up samples, 1 memory pass + %d timed passes in %.1fs; lifetime max RSS %.1f MiB\n",
		len(setups), len(walls), time.Since(start).Seconds(), maxRSSMiB())
	rep.set("setup_s", median(setups))
	rep.set("wall_s", median(walls))
	rep.set("cpu_s", median(cpus))
	rep.set("peak_heap_mib", peak)
	return rep, nil
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
