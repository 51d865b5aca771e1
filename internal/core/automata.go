package core

import (
	"fmt"

	"multiscalar/internal/tfg"
)

// Automaton is a multi-way prediction automaton: the per-entry state of a
// pattern history table, generalizing the 2-bit saturating counter of
// scalar branch prediction to the up-to-four-way exit choice (§5.1).
type Automaton interface {
	// Predict returns the predicted exit number in [0, tfg.MaxExits).
	Predict() int
	// Update trains the automaton with the actual exit number.
	Update(actual int)
}

// TiePolicy selects how voting-counter automata resolve ties between
// equally-high counters.
type TiePolicy uint8

const (
	// TieMRU picks the most recently used exit among the tied counters
	// (requires extra storage, as the paper notes).
	TieMRU TiePolicy = iota
	// TieRandom picks pseudo-randomly among the tied counters.
	TieRandom
)

func (p TiePolicy) String() string {
	if p == TieMRU {
		return "MRU"
	}
	return "RANDOM"
}

// AutomatonKind identifies one of the seven automata compared in the
// paper's Figure 6. It carries the automaton's configuration and defines
// its semantics once, over a packed state word (see predictState and
// updateState): the ideal predictors keep that word directly in their
// context tables, and New builds a heap Automaton that wraps the same
// functions for the table-of-automata predictors.
type AutomatonKind struct {
	name  string
	class autClass
	max   int8 // counter saturation value
	tie   TiePolicy
	// Bits is the storage cost per PHT entry in bits, used for sizing
	// comparisons (an LEH-2 entry is 4 bits: 2-bit exit + 2-bit counter).
	Bits int
}

// autClass is an automaton family; AutomatonKind adds its parameters.
type autClass uint8

const (
	autLE  autClass = iota // last exit
	autLEH                 // last exit with hysteresis
	autVC                  // voting counters
)

// Name returns the kind's display name (e.g. "LEH-2bit", "3bit-VC-MRU").
func (k AutomatonKind) Name() string { return k.name }

// New creates a fresh automaton of this kind. r supplies randomness for
// TieRandom voting counters and may be nil for other kinds.
func (k AutomatonKind) New(r *rng) Automaton {
	switch k.class {
	case autLE:
		le := lastExit(0)
		return &le
	case autLEH:
		return &leh{max: k.max}
	default:
		return &votingCounters{max: k.max, tie: k.tie, mru: -1, rng: r}
	}
}

// The automata of Figure 6.
var (
	// LE records only the last exit taken (a degenerate 1-bit-per-counter
	// voting scheme); highest miss rate in the paper.
	LE = AutomatonKind{name: "LE", class: autLE, Bits: 2}

	// LEH1 is last-exit with a 1-bit hysteresis counter.
	LEH1 = AutomatonKind{name: "LEH-1bit", class: autLEH, max: 1, Bits: 3}

	// LEH2 is last-exit with a 2-bit hysteresis counter — the paper's
	// recommended automaton (ties the 3-bit voting counters with fewer
	// bits).
	LEH2 = AutomatonKind{name: "LEH-2bit", class: autLEH, max: 3, Bits: 4}

	// VC2MRU is four 2-bit voting counters with MRU tie-breaking.
	VC2MRU = AutomatonKind{name: "2bit-VC-MRU", class: autVC, max: 3, tie: TieMRU, Bits: 10}

	// VC2Random is four 2-bit voting counters with random tie-breaking.
	VC2Random = AutomatonKind{name: "2bit-VC-RANDOM", class: autVC, max: 3, tie: TieRandom, Bits: 8}

	// VC3MRU is four 3-bit voting counters with MRU tie-breaking.
	VC3MRU = AutomatonKind{name: "3bit-VC-MRU", class: autVC, max: 7, tie: TieMRU, Bits: 14}

	// VC3Random is four 3-bit voting counters with random tie-breaking.
	VC3Random = AutomatonKind{name: "3bit-VC-RANDOM", class: autVC, max: 7, tie: TieRandom, Bits: 12}
)

// AllAutomata lists the seven automata of Figure 6 in the paper's legend
// order.
var AllAutomata = []AutomatonKind{VC2MRU, VC2Random, LEH1, VC3MRU, VC3Random, LEH2, LE}

// AutomatonKindByName resolves a kind by its display name.
func AutomatonKindByName(name string) (AutomatonKind, error) {
	for _, k := range AllAutomata {
		if k.name == name {
			return k, nil
		}
	}
	return AutomatonKind{}, fmt.Errorf("core: unknown automaton kind %q", name)
}

// autState is implemented by every built-in automaton: the complete
// mutable training state packed into one word, so the speculative-update
// undo log can checkpoint and restore an automaton without allocation.
// The pack excludes configuration (max, tie policy, rng pointer) — only
// what Update mutates. Update never consumes the tie-break RNG (only
// Predict does, on TieRandom ties), so the RNG stream needs no rollback.
type autState interface {
	packState() uint64
	unpackState(uint64)
}

// Packed automaton state. Every automaton's complete training state is
// one word: LE keeps the exit in bits 0–7; LEH adds its hysteresis
// counter in bits 8–15; voting counters keep counter i in bits 8i..8i+7
// and the most recently used exit (0xFF before the first update) in bits
// 32–39. The functions below are the only definition of the §5.1
// automata; the Automaton types further down are thin wrappers.

// vcMRUShift is the bit offset of a voting-counter state's MRU exit.
const vcMRUShift = 8 * tfg.MaxExits

// initState returns the packed state of a fresh automaton of kind k.
func (k *AutomatonKind) initState() uint64 {
	if k.class == autVC {
		return 0xFF << vcMRUShift // mru = -1
	}
	return 0
}

// predictState returns the exit automaton state s predicts. TieRandom
// voting counters draw from r on a tie (never otherwise), so the draw
// order is the order of predictState calls.
func (k *AutomatonKind) predictState(s uint64, r *rng) int {
	if k.class == autVC {
		return vcPredict(s, k.tie, r)
	}
	return lastExitOf(s)
}

// updateState returns state s trained with the actual exit.
func (k *AutomatonKind) updateState(s uint64, actual int) uint64 {
	switch k.class {
	case autLE:
		return packExit(actual)
	case autLEH:
		return lehUpdate(s, k.max, actual)
	default:
		return vcUpdate(s, k.max, actual)
	}
}

func lastExitOf(s uint64) int  { return int(int8(uint8(s))) }
func packExit(exit int) uint64 { return uint64(uint8(int8(exit))) }

// lehUpdate is last-exit with hysteresis (LEH): the stored exit is
// replaced only when the saturating confidence counter has decayed to
// zero and the prediction is wrong again.
func lehUpdate(s uint64, max int8, actual int) uint64 {
	exit, ctr := int8(uint8(s)), int8(uint8(s>>8))
	switch {
	case int(exit) == actual:
		if ctr < max {
			ctr++
		}
	case ctr == 0:
		exit = int8(actual)
	default:
		ctr--
	}
	return uint64(uint8(exit)) | uint64(uint8(ctr))<<8
}

// vcPredict returns the exit with the strictly highest voting counter,
// breaking ties by policy.
func vcPredict(s uint64, tie TiePolicy, r *rng) int {
	var ctr [tfg.MaxExits]int8
	best := int8(0)
	for i := range ctr {
		ctr[i] = int8(uint8(s >> (8 * uint(i))))
		if i == 0 || ctr[i] > best {
			best = ctr[i]
		}
	}
	var ties [tfg.MaxExits]int
	n := 0
	for i, c := range ctr {
		if c == best {
			ties[n] = i
			n++
		}
	}
	if n == 1 {
		return ties[0]
	}
	if tie == TieMRU {
		if mru := int8(uint8(s >> vcMRUShift)); mru >= 0 {
			for _, t := range ties[:n] {
				if int(mru) == t {
					return t
				}
			}
		}
		return ties[0]
	}
	if r != nil {
		return ties[r.intn(n)]
	}
	return ties[0]
}

// vcUpdate increments the actual exit's counter, decrements all others
// (§5.1) and records the actual exit as most recently used.
func vcUpdate(s uint64, max int8, actual int) uint64 {
	v := packExit(actual) << vcMRUShift
	for i := 0; i < tfg.MaxExits; i++ {
		c := int8(uint8(s >> (8 * uint(i))))
		if i == actual {
			if c < max {
				c++
			}
		} else if c > 0 {
			c--
		}
		v |= uint64(uint8(c)) << (8 * uint(i))
	}
	return v
}

// lastExit predicts whatever exit was taken last time (LE).
type lastExit int8

func (a *lastExit) Predict() int      { return int(*a) }
func (a *lastExit) Update(actual int) { a.unpackState(packExit(actual)) }

func (a *lastExit) packState() uint64    { return packExit(int(*a)) }
func (a *lastExit) unpackState(v uint64) { *a = lastExit(lastExitOf(v)) }

// leh is last-exit with hysteresis (LEH); see lehUpdate.
type leh struct {
	exit int8
	ctr  int8
	max  int8 // counter saturation value: 1 for LEH-1bit, 3 for LEH-2bit
}

func (a *leh) Predict() int      { return int(a.exit) }
func (a *leh) Update(actual int) { a.unpackState(lehUpdate(a.packState(), a.max, actual)) }

func (a *leh) packState() uint64 {
	return uint64(uint8(a.exit)) | uint64(uint8(a.ctr))<<8
}

func (a *leh) unpackState(v uint64) {
	a.exit = int8(uint8(v))
	a.ctr = int8(uint8(v >> 8))
}

// votingCounters keeps one saturating counter per exit; see vcPredict
// and vcUpdate.
type votingCounters struct {
	ctr [tfg.MaxExits]int8
	max int8
	tie TiePolicy
	mru int8 // most recently used exit; -1 before first update
	rng *rng
}

func (a *votingCounters) Predict() int      { return vcPredict(a.packState(), a.tie, a.rng) }
func (a *votingCounters) Update(actual int) { a.unpackState(vcUpdate(a.packState(), a.max, actual)) }

func (a *votingCounters) packState() uint64 {
	v := uint64(uint8(a.mru)) << vcMRUShift
	for i, c := range a.ctr {
		v |= uint64(uint8(c)) << (8 * uint(i))
	}
	return v
}

func (a *votingCounters) unpackState(v uint64) {
	for i := range a.ctr {
		a.ctr[i] = int8(uint8(v >> (8 * uint(i))))
	}
	a.mru = int8(uint8(v >> vcMRUShift))
}
