package main

import (
	"multiscalar/internal/core"
	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
)

// The probes are the cheapest predictors the replay kernels accept. They
// implement only the per-step interfaces, not the block fast paths, so
// replaying them through core.Evaluate*Blocks times the kernels' own
// loop: block iteration, dictionary resolution, one interface call per
// predict and update, and the miss accounting. A family's ns/step minus
// this floor is the predictor's own cost.

// probeExit always predicts exit 0.
type probeExit struct{ n int }

func (p *probeExit) Name() string                     { return "probe-exit" }
func (p *probeExit) PredictExit(t *tfg.Task) int      { p.n++; return 0 }
func (p *probeExit) UpdateExit(t *tfg.Task, exit int) {}
func (p *probeExit) Reset()                           { p.n = 0 }
func (p *probeExit) States() int                      { return p.n }

// probeTarget is a one-entry last-target buffer.
type probeTarget struct {
	target isa.Addr
	n      int
}

func (b *probeTarget) Name() string                         { return "probe-target" }
func (b *probeTarget) Lookup(cur isa.Addr) (isa.Addr, bool) { return b.target, b.target != 0 }
func (b *probeTarget) Train(cur isa.Addr, actual isa.Addr)  { b.target = actual; b.n++ }
func (b *probeTarget) Advance(cur isa.Addr)                 {}
func (b *probeTarget) Reset()                               { b.target, b.n = 0, 0 }
func (b *probeTarget) States() int                          { return b.n }

// probeTask predicts exit 0 and the last target seen.
type probeTask struct{ last isa.Addr }

func (p *probeTask) Name() string { return "probe-task" }
func (p *probeTask) Predict(t *tfg.Task) core.Prediction {
	return core.Prediction{Exit: 0, Target: p.last}
}
func (p *probeTask) Update(t *tfg.Task, o core.Outcome) { p.last = o.Target }
func (p *probeTask) Reset()                             { p.last = 0 }
