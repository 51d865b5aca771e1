package core

import "math/bits"

// liveSet is a bitmap over the entries of a direct-mapped table: bit i is
// set iff entry i is allocated (a PHT automaton touched since Reset) or
// valid (a CTTB entry). It lets corruption find its victim a word at a
// time instead of an entry at a time.
type liveSet []uint64

func newLiveSet(n int) liveSet { return make(liveSet, (n+63)/64) }

func (s liveSet) has(i uint32) bool { return s[i>>6]&(1<<(i&63)) != 0 }
func (s liveSet) set(i uint32)      { s[i>>6] |= 1 << (i & 63) }
func (s liveSet) unset(i uint32)    { s[i>>6] &^= 1 << (i & 63) }

// next returns the first member at or after start, wrapping past the end
// of the table; ok is false when the set is empty.
func (s liveSet) next(start int) (i int, ok bool) {
	w := start >> 6
	if m := s[w] &^ (1<<uint(start&63) - 1); m != 0 {
		return w<<6 + bits.TrailingZeros64(m), true
	}
	for j := w + 1; j < len(s); j++ {
		if s[j] != 0 {
			return j<<6 + bits.TrailingZeros64(s[j]), true
		}
	}
	// Wrapped: word w's bits at or after start are already known clear.
	for j := 0; j <= w; j++ {
		if s[j] != 0 {
			return j<<6 + bits.TrailingZeros64(s[j]), true
		}
	}
	return 0, false
}

// flatPHT is the pattern history table of the realizable exit
// predictors: one packed automaton word per entry (the AutomatonKind
// state of predictState/updateState) and a live bitmap. An entry is
// allocated on first touch — lookup included, as a hardware table's
// entry exists once indexed — with the kind's initial state; Reset only
// clears the bitmap, since allocation rewrites the word.
type flatPHT struct {
	words []uint64
	live  liveSet
	n     int // allocated entries: States()
}

func newFlatPHT(size int) flatPHT {
	return flatPHT{words: make([]uint64, size), live: newLiveSet(size)}
}

// touch allocates entry idx with state init unless it is live already,
// reporting whether it did.
func (t *flatPHT) touch(idx uint32, init uint64) bool {
	if t.live.has(idx) {
		return false
	}
	t.live.set(idx)
	t.words[idx] = init
	t.n++
	return true
}

// at touches entry idx and returns its state.
func (t *flatPHT) at(idx uint32, init uint64) uint64 {
	t.touch(idx, init)
	return t.words[idx]
}

// logUpdate allocates entry idx if it is not live and records the
// inverse of an imminent update of it: the allocation, when this call
// made it, and the entry's prior state.
func (t *flatPHT) logUpdate(log *undoRing, idx uint32, init uint64) {
	if t.touch(idx, init) {
		log.push(specUndo{kind: undoAutCreate, idx: idx})
	}
	log.push(specUndo{kind: undoAutState, idx: idx, prev: t.words[idx]})
}

// applyUndo applies an undoAutState or undoAutCreate entry.
func (t *flatPHT) applyUndo(e *specUndo) {
	if e.kind == undoAutCreate {
		t.live.unset(e.idx)
		t.n--
		return
	}
	t.words[e.idx] = e.prev
}

func (t *flatPHT) reset() {
	clear(t.live)
	t.n = 0
}

// corrupt flips one state bit of the first allocated entry at or after a
// random index, wrapping, so sparse tables still find a victim in one
// call. It reports false when no entry is allocated.
func (t *flatPHT) corrupt(k *AutomatonKind, rnd func(int) int) bool {
	i, ok := t.live.next(rnd(len(t.words)))
	if !ok {
		return false
	}
	t.words[i] = k.flipState(t.words[i], rnd)
	return true
}
