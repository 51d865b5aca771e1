package core

import (
	"fmt"

	"multiscalar/internal/tfg"
)

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
// paper's Figure 6: the multi-way generalization of the 2-bit counter
// that a pattern history table keeps per entry (§5.1). It carries the
// automaton's configuration and defines its semantics once, over a
// packed state word (see predictState and updateState), which every
// predictor table — the ideal context tables and the realizable flat
// PHTs alike — stores directly.
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

// Packed automaton state. Every automaton's complete training state is
// one word: LE keeps the exit in bits 0–7; LEH adds its hysteresis
// counter in bits 8–15; voting counters keep counter i in bits 8i..8i+7
// and the most recently used exit (0xFF before the first update) in bits
// 32–39. The functions below are the only definition of the §5.1
// automata. Update never consumes the tie-break RNG (only a TieRandom
// prediction does, on a tie), so speculative repair, which restores
// packed states, needs no RNG rollback.

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
