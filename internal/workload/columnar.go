package workload

import (
	"fmt"

	"multiscalar/internal/obs"
	"multiscalar/internal/sim/functional"
	"multiscalar/internal/sim/taskpath"
	"multiscalar/internal/tfg"
	"multiscalar/internal/trace"
)

// obsCacheBytes gauges the heap bytes held by the budgeted caches — the
// columnar traces and the timing model's recorded path streams, the
// actual resident cost of the cache layer. Materialized
// array-of-structs views are derived, transient artifacts and are not
// counted (counting struct bytes would over-report the cache
// several-fold now that columns are the primitive).
var obsCacheBytes = obs.Default().Gauge("workload.trace_cache.bytes")

// runColumnar executes the workload's program on a fresh machine,
// encoding the dynamic task trace segment by segment: at most
// trace.BlockSteps array-of-structs steps exist at any moment, so peak
// generation memory is the columns themselves plus one block. maxSteps
// caps the run (0 = to halt). The machine is returned for self-checks.
func runColumnar(g *tfg.Graph, maxSteps int) (*trace.Columnar, *functional.Machine, error) {
	simulations.Add(1)
	m := functional.NewMachine(g, functional.Config{})
	enc := trace.NewEncoder(g)
	for {
		chunk := trace.BlockSteps
		if maxSteps > 0 {
			if rem := maxSteps - enc.Len(); rem < chunk {
				chunk = rem
			}
		}
		if chunk <= 0 {
			break
		}
		seg, err := m.Run(functional.Config{MaxSteps: chunk})
		if err != nil {
			return nil, nil, err
		}
		if err := enc.Append(seg.Steps); err != nil {
			return nil, nil, err
		}
		if m.Stats().Halted {
			break
		}
		if len(seg.Steps) == 0 {
			return nil, nil, fmt.Errorf("workload: simulation made no progress at step %d", enc.Len())
		}
	}
	return enc.Finish(), m, nil
}

// Columnar returns the workload's full dynamic task trace in columnar
// form (computed once and cached), with the execution stats of the
// generating run. This is the primitive trace memo: Trace() materializes
// its array-of-structs view from it.
func (w *Workload) Columnar() (*trace.Columnar, functional.Stats, error) {
	c, err := w.cols.getFull(w.fullColumnar)
	return c, w.colStats, err
}

// fullColumnar generates the full columnar trace: simulate to halt with
// segmented encoding and self-check. It runs once, under the memo.
func (w *Workload) fullColumnar() (*trace.Columnar, error) {
	g, err := w.Graph()
	if err != nil {
		return nil, err
	}
	c, m, err := runColumnar(g, 0)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	if !m.Stats().Halted {
		return nil, fmt.Errorf("workload %s: did not halt", w.Name)
	}
	if w.Check != nil {
		if err := w.Check(m, g.Prog); err != nil {
			return nil, fmt.Errorf("workload %s: self-check failed: %w", w.Name, err)
		}
	}
	w.colStats = m.Stats()
	return c, nil
}

// CachedColumnar is CachedTrace over the columnar encoding: the named
// workload's trace truncated to maxSteps tasks (0 = full), memoized
// process-wide under budgetMemo's contract, shared read-only. Oversized
// caps alias the one full-columnar memo, and truncations within columns
// already generated are served as prefix views sharing the column
// backing arrays and dictionary.
//
// A workload whose trace cannot be columnar-encoded (more than 64Ki
// distinct addresses) reports trace.ErrNotColumnar; callers fall back to
// CachedTrace.
func CachedColumnar(name string, maxSteps int) (*trace.Columnar, error) {
	w, err := ByName(name)
	if err != nil {
		return nil, err
	}
	return w.cols.get(maxSteps, func(n int) (*trace.Columnar, error) {
		g, err := w.Graph()
		if err != nil {
			return nil, err
		}
		c, _, err := runColumnar(g, n)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		return c, nil
	}, w.fullColumnar)
}

// CachedPaths returns the named workload's recorded task-path stream
// (taskpath.Record) for at most steps tasks (0 = to halt), memoized
// process-wide under budgetMemo's contract and shared read-only: every
// timing run of a workload replays one recording.
func CachedPaths(name string, steps int) (*taskpath.Stream, error) {
	w, err := ByName(name)
	if err != nil {
		return nil, err
	}
	record := func(n int) (*taskpath.Stream, error) {
		g, err := w.Graph()
		if err != nil {
			return nil, err
		}
		simulations.Add(1)
		s, err := taskpath.Record(g, n)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		return s, nil
	}
	return w.paths.get(steps, record, func() (*taskpath.Stream, error) { return record(0) })
}

// blockStream generates a workload's trace block by block, on the fly:
// functional simulation is pipelined into replay and nothing beyond the
// current block (plus the growing dictionary) is ever resident. repeat
// lets callers synthesize streams longer than one program run — each
// pass re-executes the workload on a fresh machine, sharing the
// dictionary across passes.
type blockStream struct {
	g        *tfg.Graph
	bb       *trace.BlockBuilder
	m        *functional.Machine
	maxSteps int // per-pass cap (0 = to halt)
	produced int // steps produced this pass
	passes   int // passes remaining (current one included once started)
	err      error
}

// StreamBlocks returns a BlockSource that generates the named workload's
// dynamic task trace without materializing it: repeat back-to-back runs
// (each a fresh deterministic execution), each capped at maxSteps tasks
// (0 = to halt). The source is single-use and not safe for concurrent
// use; each replay needs its own.
func StreamBlocks(name string, maxSteps, repeat int) (trace.BlockSource, error) {
	w, err := ByName(name)
	if err != nil {
		return nil, err
	}
	g, err := w.Graph()
	if err != nil {
		return nil, err
	}
	if repeat < 1 {
		repeat = 1
	}
	return &blockStream{g: g, bb: trace.NewBlockBuilder(g), maxSteps: maxSteps, passes: repeat}, nil
}

// NextBlock implements trace.BlockSource.
func (s *blockStream) NextBlock() (*trace.Block, error) {
	if s.err != nil {
		return nil, s.err
	}
	for {
		if s.m == nil {
			if s.passes <= 0 {
				return nil, nil
			}
			s.passes--
			simulations.Add(1)
			s.m = functional.NewMachine(s.g, functional.Config{})
			s.produced = 0
		}
		chunk := trace.BlockSteps
		if s.maxSteps > 0 {
			if rem := s.maxSteps - s.produced; rem < chunk {
				chunk = rem
			}
		}
		if chunk <= 0 {
			s.m = nil
			continue
		}
		seg, err := s.m.Run(functional.Config{MaxSteps: chunk})
		if err != nil {
			s.err = err
			return nil, err
		}
		if s.m.Stats().Halted {
			s.m = nil
		}
		if len(seg.Steps) == 0 {
			s.m = nil
			continue
		}
		s.produced += len(seg.Steps)
		b, err := s.bb.Build(seg.Steps)
		if err != nil {
			s.err = err
			return nil, err
		}
		return b, nil
	}
}
