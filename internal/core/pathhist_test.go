package core

import (
	"slices"
	"testing"
	"testing/quick"

	"multiscalar/internal/isa"
)

func TestPathHistoryOrder(t *testing.T) {
	var h PathHistory
	h.Push(10)
	h.Push(20)
	h.Push(30)
	if h.At(1) != 30 || h.At(2) != 20 || h.At(3) != 10 {
		t.Fatalf("history order wrong: %d %d %d", h.At(1), h.At(2), h.At(3))
	}
	if h.At(4) != 0 {
		t.Fatalf("unpushed history should read 0, got %d", h.At(4))
	}
}

func TestPathHistoryWraps(t *testing.T) {
	var h PathHistory
	for i := 1; i <= 3*MaxHistoryDepth; i++ {
		h.Push(isa.Addr(i))
	}
	for i := 1; i <= MaxHistoryDepth; i++ {
		want := isa.Addr(3*MaxHistoryDepth - i + 1)
		if got := h.At(i); got != want {
			t.Fatalf("At(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestPathHistoryReset(t *testing.T) {
	var h PathHistory
	h.Push(42)
	h.Reset()
	if h.At(1) != 0 {
		t.Fatalf("reset history should read 0")
	}
}

// Property: MakePathKey is injective over (current, history prefix) for
// 16-bit addresses — the alias-freedom guarantee of the ideal predictors.
func TestPathKeyInjective(t *testing.T) {
	f := func(a, b [8]uint16, curA, curB uint16) bool {
		var ha, hb PathHistory
		for i := len(a) - 1; i >= 0; i-- {
			ha.Push(isa.Addr(a[i]))
			hb.Push(isa.Addr(b[i]))
		}
		ka := MakePathKey(&ha, isa.Addr(curA), 8)
		kb := MakePathKey(&hb, isa.Addr(curB), 8)
		same := curA == curB && a == b
		return (ka == kb) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: at every depth the key is injective over (current, the
// depth most recent predecessors) for addresses that use all 16 bits,
// and ignores older history. The d11 case pins the former aliasing, when
// a depth tag shared bits with the 11th element.
func TestPathKeyInjectiveAtEveryDepth(t *testing.T) {
	r := newRNG(11)
	addr := func() isa.Addr {
		// Mostly draws from a small alphabet so equal elements occur, with
		// the top bit forced on half the time.
		a := isa.Addr(r.intn(4))
		if r.intn(2) == 0 {
			a |= 0x8000 | isa.Addr(r.intn(1<<15))
		}
		return a
	}
	for depth := 0; depth <= MaxHistoryDepth; depth++ {
		for trial := 0; trial < 3000; trial++ {
			var a, b [MaxHistoryDepth]isa.Addr
			var ha, hb PathHistory
			for i := range a {
				a[i], b[i] = addr(), addr()
				if r.intn(3) == 0 {
					b[i] = a[i]
				}
			}
			for i := len(a) - 1; i >= 0; i-- {
				ha.Push(a[i])
				hb.Push(b[i])
			}
			curA, curB := addr(), addr()
			same := curA == curB && slices.Equal(a[:depth], b[:depth])
			if got := MakePathKey(&ha, curA, depth) == MakePathKey(&hb, curB, depth); got != same {
				t.Fatalf("depth %d: keys equal=%v for cur %#x/%#x, paths %#x/%#x", depth, got, curA, curB, a[:depth], b[:depth])
			}
		}
	}
	var h1, h2 PathHistory
	h1.Push(0x12)
	h2.Push(0x112)
	for i := 1; i < MaxHistoryDepth; i++ {
		h1.Push(7)
		h2.Push(7)
	}
	if MakePathKey(&h1, 7, MaxHistoryDepth) == MakePathKey(&h2, 7, MaxHistoryDepth) {
		t.Fatal("d11 keys alias on the oldest element's high bits")
	}
}

// The ideal predictors' packed path register must produce exactly
// MakePathKey's key over the same pushes, at every depth.
func TestPathRegMatchesMakePathKey(t *testing.T) {
	r := newRNG(5)
	for depth := 0; depth <= MaxHistoryDepth; depth++ {
		reg := newPathReg(depth)
		var h PathHistory
		for step := 0; step < 200; step++ {
			cur := isa.Addr(r.intn(1 << 16))
			if got, want := reg.key(cur), MakePathKey(&h, cur, depth); got != ctxKey(want) {
				t.Fatalf("depth %d step %d: register key %#x, MakePathKey %#x", depth, step, got, want)
			}
			reg.push(cur)
			h.Push(cur)
		}
	}
}

func TestExitHistoryPush(t *testing.T) {
	var h ExitHistory
	h = h.Push(3, 2)
	h = h.Push(1, 2)
	if h != 0b1101 {
		t.Fatalf("history = %b, want 1101", h)
	}
	h = h.Push(2, 2) // depth 2 keeps only last two entries
	if h != 0b0110 {
		t.Fatalf("history = %b, want 0110", h)
	}
	if got := h.Push(3, 0); got != 0 {
		t.Fatalf("depth-0 history must stay empty, got %b", got)
	}
}
