package core

import (
	"fmt"
	"strconv"
	"strings"

	"multiscalar/internal/isa"
)

// DOLC specifies a realizable path-based index function (§6.2, Figure 9).
//
// An intermediate index is built by concatenating low-order task address
// bits: C bits of the current task, L bits of the last task
// (Current_Task - 1), and O bits from each of the D-1 older tasks
// (Current_Task - 2 … Current_Task - D). The intermediate index is then
// folded by splitting it into F equal sub-fields that are XORed together,
// yielding the final table index of (D-1)·O + L + C) / F bits.
//
// The paper writes configurations as D-O-L-C (F); String reproduces that
// notation.
type DOLC struct {
	Depth   int // D: number of preceding tasks in the path
	Older   int // O: bits per older task (Current-2 … Current-D)
	Last    int // L: bits from the last task (Current-1)
	Current int // C: bits from the current task
	Folds   int // F: number of XOR-folded sub-fields
}

// String renders the configuration in the paper's D-O-L-C (F) notation.
func (d DOLC) String() string {
	return fmt.Sprintf("%d-%d-%d-%d(%d)", d.Depth, d.Older, d.Last, d.Current, d.Folds)
}

// IntermediateBits returns the length of the intermediate index:
// (D-1)·O + L + C (zero-clamped for D ∈ {0,1}, where no older tasks
// contribute).
func (d DOLC) IntermediateBits() int {
	older := d.Depth - 1
	if older < 0 {
		older = 0
	}
	return older*d.Older + d.Last + d.Current
}

// IndexBits returns the width of the final, folded index.
func (d DOLC) IndexBits() int {
	if d.Folds <= 1 {
		return d.IntermediateBits()
	}
	return d.IntermediateBits() / d.Folds
}

// TableSize returns the number of entries of a table indexed by this
// configuration (2^IndexBits).
func (d DOLC) TableSize() int { return 1 << uint(d.IndexBits()) }

// Validate checks that the configuration is well-formed: non-negative
// fields, depth within MaxHistoryDepth, a positive index width, and an
// intermediate length that divides evenly into F sub-fields (the paper's
// "length of the intermediate index … must be a multiple of F").
func (d DOLC) Validate() error {
	if d.Depth < 0 || d.Older < 0 || d.Last < 0 || d.Current < 0 {
		return fmt.Errorf("core: DOLC %v: negative field", d)
	}
	if d.Depth > MaxHistoryDepth {
		return fmt.Errorf("core: DOLC %v: depth exceeds MaxHistoryDepth=%d", d, MaxHistoryDepth)
	}
	if d.Folds < 1 {
		return fmt.Errorf("core: DOLC %v: folds must be >= 1", d)
	}
	ib := d.IntermediateBits()
	if ib == 0 {
		return fmt.Errorf("core: DOLC %v: empty intermediate index", d)
	}
	if ib%d.Folds != 0 {
		return fmt.Errorf("core: DOLC %v: intermediate length %d not a multiple of F=%d", d, ib, d.Folds)
	}
	if d.IndexBits() > 30 {
		return fmt.Errorf("core: DOLC %v: index of %d bits is unreasonably large", d, d.IndexBits())
	}
	// O=0 at D>=2 is legal but pointless (older tasks contribute
	// nothing); it stays allowed, like the paper's 1-0-7-7(1) point,
	// which has O=0 at D=1.
	return nil
}

// intermediate builds the unfolded intermediate index from the history
// register and current task address. Oldest bits end up highest, matching
// Figure 9's layout (current task at the low end).
func (d DOLC) intermediate(h *PathHistory, current isa.Addr) uint64 {
	v := uint64(0)
	for i := d.Depth; i >= 2; i-- {
		v = v<<uint(d.Older) | uint64(h.At(i))&(1<<uint(d.Older)-1)
	}
	if d.Depth >= 1 {
		v = v<<uint(d.Last) | uint64(h.At(1))&(1<<uint(d.Last)-1)
	}
	v = v<<uint(d.Current) | uint64(current)&(1<<uint(d.Current)-1)
	return v
}

// Index computes the final table index for the given history and current
// task: the intermediate index split into F fields, XOR-folded together.
func (d DOLC) Index(h *PathHistory, current isa.Addr) uint32 {
	v := d.intermediate(h, current)
	bits := d.IndexBits()
	if d.Folds <= 1 {
		return uint32(v & (1<<uint(bits) - 1))
	}
	mask := uint64(1)<<uint(bits) - 1
	folded := uint64(0)
	for f := 0; f < d.Folds; f++ {
		folded ^= v & mask
		v >>= uint(bits)
	}
	return uint32(folded)
}

// dolcPath is a path history register together with its DOLC index
// kept as a derived folded register, so an index costs one XOR with the
// current task's bits instead of a walk over the register (§6.2's fold
// is linear: every history position contributes its own folded term).
//
// The ring is the state; old and reg are derived from it. An eager
// register (PathExit, which indexes on nearly every step) is updated by
// push in O(1): an address field that fits the index width folds to a
// rotation of itself, and the terms of positions 2..D-1 all move one
// position older, which in the folded domain is a rotation by O bits.
// So push removes the term leaving position D, rotates, and adds the
// term of the address moving from position 1 to 2. Anything else that
// changes the ring — a corruption bit flip, a speculative undo — marks
// the register stale, and the next index rebuilds it from the ring. A
// lazy register (the CTTB, which indexes only on tasks that take an
// indirect exit, a small fraction of them) lets every push mark it
// stale instead. The rotation
// identities need fields no wider than the index and the whole
// intermediate index inside one uint64 (DOLC.Index truncates longer
// ones); configurations outside that, none of them the paper's, are
// always rebuilt by folding.
type dolcPath struct {
	hist  PathHistory
	dolc  DOLC
	old   uint64 // fold of positions 2..D
	reg   uint64 // old ^ fold of position 1: the index less the current task
	stale bool   // old and reg lag the ring; index rebuilds them
	eager bool   // push updates old and reg: an eager owner, D >= 1 and rotates

	bits                uint   // index width
	mask                uint64 // index mask
	cMask, lMask, oMask uint64 // C, L and O bit fields of an address
	rotates             bool   // fields fold by rotation (see above)
	backD               int    // ring offset from position 1 to position D
	// Rotation amounts: O, and the intermediate offsets of positions 1,
	// 2 and D, all modulo the index width.
	rotO, rot1, rot2, rotD uint
}

func newDolcPath(d DOLC, eager bool) dolcPath {
	p := dolcPath{
		dolc:  d,
		bits:  uint(d.IndexBits()),
		cMask: uint64(1)<<uint(d.Current) - 1,
		lMask: uint64(1)<<uint(d.Last) - 1,
		oMask: uint64(1)<<uint(d.Older) - 1,
	}
	p.mask = uint64(1)<<p.bits - 1
	p.rotates = d.IntermediateBits() <= 64 && uint(d.Last) <= p.bits && uint(d.Older) <= p.bits
	p.eager = eager && p.rotates && d.Depth >= 1
	p.backD = len(p.hist.ring) - d.Depth + 1
	p.rotO = uint(d.Older) % p.bits
	p.rot1 = uint(d.Current) % p.bits
	p.rot2 = uint(d.Current+d.Last) % p.bits
	if d.Depth >= 2 {
		p.rotD = uint(d.Current+d.Last+(d.Depth-2)*d.Older) % p.bits
	}
	return p
}

// fold XORs v's index-width fields together (Figure 9's F-way fold).
func (p *dolcPath) fold(v uint64) uint64 {
	r := v & p.mask
	for v >>= p.bits; v != 0; v >>= p.bits {
		r ^= v & p.mask
	}
	return r
}

// rot rotates x, a value within the index width, left by r < bits. (The
// &63 spares the compiler's oversized-shift handling: both counts are
// below 64.)
func (p *dolcPath) rot(x uint64, r uint) uint64 {
	return (x<<(r&63) | x>>((p.bits-r)&63)) & p.mask
}

// index returns DOLC.Index(&p.hist, current).
func (p *dolcPath) index(current isa.Addr) uint32 {
	if p.stale {
		p.rebuild()
	}
	return uint32(p.reg ^ p.fold(uint64(current)&p.cMask))
}

// push shifts a task address into the register (PathHistory.Push).
func (p *dolcPath) push(addr isa.Addr) {
	h := &p.hist
	if p.stale || !p.eager {
		h.Push(addr)
		p.stale = true
		return
	}
	if p.dolc.Depth >= 2 {
		od := h.head + p.backD
		if od >= len(h.ring) {
			od -= len(h.ring)
		}
		out := p.rot(uint64(h.ring[od])&p.oMask, p.rotD)
		in := p.rot(uint64(h.ring[h.head])&p.oMask, p.rot2)
		p.old = p.rot(p.old^out, p.rotO) ^ in
	}
	h.Push(addr)
	p.reg = p.old ^ p.rot(uint64(addr)&p.lMask, p.rot1)
}

// rebuild recomputes the derived register from the ring.
func (p *dolcPath) rebuild() {
	d := p.dolc
	p.old, p.reg, p.stale = 0, 0, false
	if d.Depth == 0 {
		return
	}
	off, r := uint(d.Current+d.Last), p.rot2 // position 2's offset
	for j := 2; j <= d.Depth; j++ {
		x := uint64(p.hist.At(j)) & p.oMask
		if p.rotates {
			p.old ^= p.rot(x, r)
			if r += p.rotO; r >= p.bits {
				r -= p.bits
			}
		} else {
			p.old ^= p.fold(x << off)
			off += uint(d.Older)
		}
	}
	x := uint64(p.hist.At(1)) & p.lMask
	if p.rotates {
		p.reg = p.old ^ p.rot(x, p.rot1)
	} else {
		p.reg = p.old ^ p.fold(x<<uint(d.Current))
	}
}

// reset clears the register.
func (p *dolcPath) reset() {
	p.hist.Reset()
	p.old, p.reg, p.stale = 0, 0, false
}

// flipBit corrupts the ring (PathHistory.FlipBit).
func (p *dolcPath) flipBit(rnd func(int) int) {
	p.hist.FlipBit(rnd)
	p.stale = true
}

// undoPush reverses one logged push (see logPathHist).
func (p *dolcPath) undoPush(e *specUndo) {
	undoPathHistApply(&p.hist, e)
	p.stale = true
}

// ParseDOLC parses a configuration written as "D-O-L-C-F" (five
// dash-separated integers, e.g. "7-5-6-6-3") and validates it. It is the
// flag syntax shared by msim and mlint.
func ParseDOLC(s string) (DOLC, error) {
	parts := strings.Split(s, "-")
	if len(parts) != 5 {
		return DOLC{}, fmt.Errorf("core: bad DOLC %q (want D-O-L-C-F)", s)
	}
	var v [5]int
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil {
			return DOLC{}, fmt.Errorf("core: bad DOLC %q: %v", s, err)
		}
		v[i] = n
	}
	d := DOLC{Depth: v[0], Older: v[1], Last: v[2], Current: v[3], Folds: v[4]}
	return d, d.Validate()
}

// MustDOLC builds a DOLC configuration and panics if it is invalid; it is
// a convenience for the experiment tables, whose configurations are
// static.
//
// Panic contract: Must* constructors in this package panic if and only if
// their statically-known arguments fail Validate — a programming error,
// never a data-dependent condition. Runtime-provided configurations (CLI
// flags, fault specs) must go through the error-returning constructors
// (ParseDOLC, NewPathExit, NewCTTB, ...).
func MustDOLC(depth, older, last, current, folds int) DOLC {
	d := DOLC{Depth: depth, Older: older, Last: last, Current: current, Folds: folds}
	if err := d.Validate(); err != nil {
		panic(err)
	}
	return d
}
