package workload

import (
	"sync"
	"time"

	"multiscalar/internal/obs"
)

// budgeted is an artifact generated from a workload's execution under a
// dynamic-task budget: a columnar trace, its materialized view or a
// recorded task-path stream. T is the artifact's pointer type.
type budgeted[T any] interface {
	comparable
	Len() int
	Halted() bool
	// Prefix returns the artifact of the first n tasks, sharing storage.
	Prefix(n int) T
}

// resident is implemented by the artifacts whose bytes count toward the
// cache gauge: the primitive encodings, not views derived from them.
type resident interface {
	// Footprint is the artifact's resident heap bytes.
	Footprint() int
}

// budgetMemo memoizes one workload's budgeted artifact process-wide.
// Its contract, shared by every cache built on it:
//
//   - a budget ≤ 0 asks for the full, run-to-halt artifact;
//   - each budget is generated at most once, however many goroutines ask
//     for it at once, and a failed generation is memoized as its error;
//   - a budget at or beyond a halted artifact's length is that artifact,
//     so every oversized budget shares one copy;
//   - a budget within an artifact already generated is served as its
//     prefix — the functional machine is deterministic, so a capped run
//     is exactly a prefix of a longer one — costing no simulation;
//   - a capped generation that halted is replaced by the full artifact.
//
// Hits, misses, generation time and the bytes of generated (non-prefix)
// resident artifacts go to the workload.trace_cache metrics.
type budgetMemo[T budgeted[T]] struct {
	fullOnce sync.Once
	full     T
	fullErr  error

	mu      sync.Mutex
	longest T // longest artifact generated so far; the zero T if none

	entries sync.Map // budget int -> *memoEntry[T]
}

// memoEntry generates one budget's artifact exactly once.
type memoEntry[T any] struct {
	once sync.Once
	v    T
	err  error
}

// get returns the artifact for budget. gen generates a capped artifact
// (budget > 0); genFull generates the full one, with any checks a full
// run owes. Both are called at most once per budget and memo.
func (m *budgetMemo[T]) get(budget int, gen func(int) (T, error), genFull func() (T, error)) (T, error) {
	if budget <= 0 {
		return m.getFull(genFull)
	}
	if l := m.longestSoFar(); l != m.zero() && l.Halted() && budget >= l.Len() {
		if obs.On() {
			obsCacheHits.Inc()
		}
		return l, nil
	}
	e, _ := m.entries.LoadOrStore(budget, &memoEntry[T]{})
	entry := e.(*memoEntry[T])
	generated := false
	entry.once.Do(func() {
		generated = true
		if l := m.longestSoFar(); l != m.zero() && (l.Halted() || budget <= l.Len()) {
			entry.v = l.Prefix(budget)
			if obs.On() {
				obsCacheHits.Inc()
			}
			return
		}
		start := time.Now() //detlint:allow det-time (obs-gated decode timing; metrics only)
		v, err := gen(budget)
		if obs.On() {
			obsCacheMisses.Inc()
			obsDecodeSecs.Observe(time.Since(start).Seconds())
		}
		if err != nil {
			entry.err = err
			return
		}
		if v.Halted() {
			// The cap never bit: alias the full artifact so every
			// oversized budget shares one copy.
			if full, ferr := m.getFull(genFull); ferr == nil {
				entry.v = full
				return
			}
		}
		entry.v = v
		m.offer(v)
	})
	if !generated && obs.On() {
		obsCacheHits.Inc()
	}
	return entry.v, entry.err
}

// getFull is get's full-artifact arm.
func (m *budgetMemo[T]) getFull(genFull func() (T, error)) (T, error) {
	generated := false
	m.fullOnce.Do(func() {
		generated = true
		start := time.Now() //detlint:allow det-time (obs-gated decode timing; metrics only)
		m.full, m.fullErr = genFull()
		if obs.On() {
			obsCacheMisses.Inc()
			obsDecodeSecs.Observe(time.Since(start).Seconds())
		}
		if m.fullErr == nil {
			m.offer(m.full)
		}
	})
	if !generated && obs.On() {
		obsCacheHits.Inc()
	}
	return m.full, m.fullErr
}

// offer records a newly generated artifact: its bytes count toward the
// cache gauge, and it becomes the prefix source if it is the longest.
func (m *budgetMemo[T]) offer(v T) {
	if r, ok := any(v).(resident); ok && obs.On() {
		obsCacheBytes.Add(int64(r.Footprint()))
	}
	m.mu.Lock()
	if l := m.longest; l == m.zero() || v.Len() > l.Len() || v.Halted() {
		m.longest = v
	}
	m.mu.Unlock()
}

func (m *budgetMemo[T]) longestSoFar() T {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.longest
}

func (m *budgetMemo[T]) zero() T {
	var z T
	return z
}
