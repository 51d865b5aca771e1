package core

// ctxTable is the flat context table behind the ideal (alias-free)
// predictors: an open-addressed, linearly probed array of slots, each
// holding one exact context key and that context's packed state word
// (an automaton's packed state, a packed TTB entry, or an exit history
// register). There is no per-context heap object and no interface value
// per context; growing the table is the only allocation.
//
// A slot is live iff its state word carries ctxLive; every stored state
// gets the bit on write and loses it on read, so packed states may use
// bits 0–62 freely. Deletion is backward-shift deletion, so the table
// never holds tombstones and a probe stops at the first empty slot.
//
// Slots move on growth and on deletion. Callers therefore never keep a
// slot index across a mutation they do not control: the speculative
// undo log records context keys, and the table's own last-slot cache is
// revalidated against the key on every use.
type ctxTable struct {
	slots []ctxSlot
	n     int  // live slots
	shift uint // 64 - log2(len(slots)): a hash's top bits pick the home slot
	last  int  // slot of the most recent probe hit or insert
}

// ctxKey is an exact context key. The ideal PATH/CTTB key holds the
// current task and up to MaxHistoryDepth predecessors at 16 bits each
// (the PathKey layout); the exit-history schemes use only the first
// word.
type ctxKey [3]uint64

type ctxSlot struct {
	key   ctxKey
	state uint64
}

// ctxLive marks an occupied slot's state word.
const ctxLive = 1 << 63

const (
	ctxInitBits  = 8 // log2 of the initial slot count
	ctxInitSlots = 1 << ctxInitBits
	// A table grows by doubling once more than ctxMaxLoadNum/ctxMaxLoadDen
	// of its slots are live.
	ctxMaxLoadNum, ctxMaxLoadDen = 3, 4
)

func newCtxTable() ctxTable {
	return ctxTable{slots: make([]ctxSlot, ctxInitSlots), shift: 64 - ctxInitBits}
}

// home returns a key's home slot: a multiply-xor hash whose top bits
// depend on every key bit.
func (t *ctxTable) home(k *ctxKey) int {
	h := k[0] ^ k[1]*0xc2b2ae3d27d4eb4f ^ k[2]*0x165667b19e3779f9
	h ^= h >> 31
	return int((h * 0x9e3779b97f4a7c15) >> t.shift)
}

// len returns the number of live contexts.
func (t *ctxTable) len() int { return t.n }

// reset empties the table in place, keeping its capacity.
func (t *ctxTable) reset() {
	clear(t.slots)
	t.n, t.last = 0, 0
}

// probe looks k up, returning k's slot and whether k is present; when
// absent, the slot is the empty one where k belongs. The last-hit slot is
// checked first, so the Update that follows a Predict on the same
// context costs one compare, not a probe.
func (t *ctxTable) probe(k *ctxKey) (int, bool) {
	if s := &t.slots[t.last]; s.state != 0 && s.key == *k {
		return t.last, true
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.state == 0 {
			return i, false
		}
		if s.key == *k {
			t.last = i
			return i, true
		}
	}
}

// upsert returns k's slot, inserting k with state init when absent, and
// reports whether it inserted. An insert that passes the load bound grows
// the table, which moves every slot.
func (t *ctxTable) upsert(k *ctxKey, init uint64) (int, bool) {
	i, ok := t.probe(k)
	if ok {
		return i, false
	}
	t.slots[i] = ctxSlot{key: *k, state: init | ctxLive}
	t.n++
	if t.n*ctxMaxLoadDen > len(t.slots)*ctxMaxLoadNum {
		t.grow()
		i, _ = t.probe(k)
	}
	t.last = i
	return i, true
}

// state returns slot i's packed state.
func (t *ctxTable) state(i int) uint64 { return t.slots[i].state &^ ctxLive }

// setState overwrites slot i's packed state.
func (t *ctxTable) setState(i int, v uint64) { t.slots[i].state = v | ctxLive }

// grow doubles the slot array and reinserts every live slot.
func (t *ctxTable) grow() {
	old := t.slots
	t.slots = make([]ctxSlot, 2*len(old))
	t.shift--
	mask := len(t.slots) - 1
	for j := range old {
		if old[j].state == 0 {
			continue
		}
		i := t.home(&old[j].key)
		for t.slots[i].state != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = old[j]
	}
	t.last = 0
}

// delete removes k if present. Later slots of k's probe run shift back
// into the hole, so lookups never cross a tombstone.
func (t *ctxTable) delete(k *ctxKey) {
	i, ok := t.probe(k)
	if !ok {
		return
	}
	mask := len(t.slots) - 1
	for j := i; ; {
		j = (j + 1) & mask
		if t.slots[j].state == 0 {
			break
		}
		// Slot j may fill the hole at i unless its home lies cyclically
		// in (i, j], where a probe for it would stop before reaching i.
		h := t.home(&t.slots[j].key)
		if (i < j && (h <= i || h > j)) || (j < i && h <= i && h > j) {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = ctxSlot{}
	t.n--
}

// Undo-log integration: the ideal predictors log context keys, never
// slot indexes, because slots move on growth and deletion.

// logUpdate records the inverses of an imminent state write to k's slot
// i: the slot's creation (when the write's lookup inserted it) and its
// prior state.
func (t *ctxTable) logUpdate(log *undoRing, k *ctxKey, i int, created bool) {
	if created {
		log.push(specUndo{kind: undoCtxCreate, key: *k})
	}
	log.push(specUndo{kind: undoCtxState, key: *k, prev: t.state(i)})
}

// applyUndo reverses one undoCtxCreate or undoCtxState entry.
func (t *ctxTable) applyUndo(e *specUndo) {
	switch e.kind {
	case undoCtxCreate:
		t.delete(&e.key)
	case undoCtxState:
		i, ok := t.probe(&e.key)
		if !ok {
			panic("core: undo log restores a context missing from its table")
		}
		t.setState(i, e.prev)
	}
}
