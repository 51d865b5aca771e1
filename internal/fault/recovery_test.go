package fault_test

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"multiscalar/internal/experiments"
	"multiscalar/internal/fault"
	"multiscalar/internal/trace"
)

// dropBlock forwards a block source but swallows its drop'th block.
type dropBlock struct {
	src  trace.BlockSource
	drop int
	n    int
}

func (d *dropBlock) NextBlock() (*trace.Block, error) {
	b, err := d.src.NextBlock()
	if d.n++; d.n == d.drop && b != nil {
		return d.src.NextBlock()
	}
	return b, err
}

// writeThrough forwards a block source and, once the replay is under
// way, overwrites one dictionary address of the trace it reads.
type writeThrough struct {
	src  trace.BlockSource
	dict *trace.Dict
	done bool
}

func (w *writeThrough) NextBlock() (*trace.Block, error) {
	if !w.done {
		w.dict.Entries[len(w.dict.Entries)-1].Addr ^= 1 << 20
		w.done = true
	}
	return w.src.NextBlock()
}

// TestReplayTaskPlantedViolations plants one violation of each recovery
// invariant and requires ReplayTask to report it: a source that drops a
// block (step count), a replay that writes through to the trace's
// dictionary (checksum), and a trace bound to a graph whose header
// contradicts it (revalidation). The clean replay passes all three.
func TestReplayTaskPlantedViolations(t *testing.T) {
	c := testColumnar(t, "compressb", 3*trace.BlockSteps+100)
	spec := fault.MustSpec("all=0.01,seed=11")
	replay := func(c *trace.Columnar, src trace.BlockSource) error {
		_, err := fault.ReplayTask(c, src, fault.MustNew(spec, fullPredictor()))
		return err
	}
	if err := replay(c, c.Blocks()); err != nil {
		t.Fatalf("clean replay: %v", err)
	}

	err := replay(c, &dropBlock{src: c.Blocks(), drop: 2})
	want := fmt.Sprintf("faulted replay scored %d steps, oracle has %d", c.PredictionSteps()-trace.BlockSteps, c.PredictionSteps())
	if err == nil || err.Error() != want {
		t.Errorf("dropped block: err = %v, want %q", err, want)
	}

	cp := *c
	cp.Dict = &trace.Dict{Entries: slices.Clone(c.Dict.Entries)}
	err = replay(&cp, &writeThrough{src: cp.Blocks(), dict: cp.Dict})
	if err == nil || !strings.Contains(err.Error(), "trace contents changed") {
		t.Errorf("written-through dictionary: err = %v", err)
	}

	g := *c.Graph
	g.Tasks = maps.Clone(g.Tasks)
	for addr, task := range g.Tasks {
		for i, x := range task.Exits {
			if x.HasTarget {
				bad := *task
				bad.Exits = slices.Clone(task.Exits)
				bad.Exits[i].Target++
				g.Tasks[addr] = &bad
			}
		}
	}
	cp = *c
	cp.Graph = &g
	err = replay(&cp, cp.Blocks())
	if err == nil || !strings.Contains(err.Error(), "no longer validates") {
		t.Errorf("contradicting graph: err = %v", err)
	}
}

// TestRollThresholdMatchesFloat checks the injector's integer roll
// against the float comparison it replaced, float64(x)/2^32 < rate, on
// draws at and around each rate's threshold and at both ends of the
// draw range.
func TestRollThresholdMatchesFloat(t *testing.T) {
	rates := append(slices.Clone(experiments.FaultSweepRates),
		1.0/(1<<32), 1.0/3, 0.5, 1-1.0/(1<<32), math.Nextafter(1, 0), 1)
	for _, r := range rates {
		th := fault.RollThreshold(r)
		switch r {
		case 0:
			if th != 0 {
				t.Errorf("rate 0: threshold %d, want 0 (never fires, no draw)", th)
			}
			continue
		case 1:
			if th != math.MaxUint64 {
				t.Errorf("rate 1: threshold %d, want MaxUint64 (fires without a draw)", th)
			}
			continue
		}
		draws := []uint64{0, math.MaxUint32}
		for d := uint64(0); d <= 4; d++ {
			draws = append(draws, th+d-2)
		}
		for _, x := range draws {
			if x > math.MaxUint32 {
				continue
			}
			if got, want := fault.Hit(uint32(x), th), float64(x)/(1<<32) < r; got != want {
				t.Errorf("rate %g, draw %d: integer roll fires=%v, float roll fires=%v", r, x, got, want)
			}
		}
	}
}
