package core

import (
	"math/rand"
	"testing"

	"multiscalar/internal/isa"
)

// drawLog is a rnd func over a fixed script that records the range of
// every draw.
type drawLog struct {
	script []int
	ns     []int
}

func (d *drawLog) rnd(n int) int {
	v := d.script[len(d.ns)%len(d.script)] % n
	d.ns = append(d.ns, n)
	return v
}

// TestFlipStateMatchesHeapFlipBit pins the packed corruption bit flip to
// the heap automata's flipBit: for every kind, from many reachable
// states, both consume the same rnd draws (count and ranges, in order)
// and invert the same bit.
func TestFlipStateMatchesHeapFlipBit(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, kind := range AllAutomata {
		tie := newRNG(1)
		heap := refNewAutomaton(kind, &tie)
		for trial := 0; trial < 500; trial++ {
			heap.Update(r.Intn(4))
			script := []int{r.Intn(64), r.Intn(64), r.Intn(64)}
			packed := &drawLog{script: script}
			ref := &drawLog{script: script}
			got := kind.flipState(heap.packState(), packed.rnd)
			heap.flipBit(ref.rnd)
			if want := heap.packState(); got != want {
				t.Fatalf("%s trial %d: flipState = %#x, heap flipBit = %#x", kind.Name(), trial, got, want)
			}
			if len(packed.ns) != len(ref.ns) {
				t.Fatalf("%s: packed drew %v, heap drew %v", kind.Name(), packed.ns, ref.ns)
			}
			for i := range ref.ns {
				if packed.ns[i] != ref.ns[i] {
					t.Fatalf("%s: packed drew %v, heap drew %v", kind.Name(), packed.ns, ref.ns)
				}
			}
		}
	}
}

// linearNext is the entry-by-entry wrap-around scan the bitmap search
// replaces.
func linearNext(live []bool, start int) (int, bool) {
	for i := 0; i < len(live); i++ {
		if j := (start + i) % len(live); live[j] {
			return j, true
		}
	}
	return 0, false
}

func checkNext(t *testing.T, live []bool, start int) {
	t.Helper()
	s := newLiveSet(len(live))
	for i, v := range live {
		if v {
			s.set(uint32(i))
		}
	}
	gi, gok := s.next(start)
	wi, wok := linearNext(live, start)
	if gi != wi || gok != wok {
		t.Fatalf("n=%d start=%d: next = (%d,%v), linear scan (%d,%v)", len(live), start, gi, gok, wi, wok)
	}
}

func TestLiveSetNextMatchesLinearScan(t *testing.T) {
	for _, n := range []int{2, 8, 64, 128, 1 << 11} {
		live := make([]bool, n)
		starts := []int{0, 1, n / 2, n - 64, n - 2, n - 1} // n-64: the last word
		for _, start := range starts {
			if start < 0 {
				continue
			}
			clear(live) // empty table
			checkNext(t, live, start)
			for i := range live { // full table
				live[i] = true
			}
			checkNext(t, live, start)
			for _, only := range []int{0, n - 1} { // a single live bit
				clear(live)
				live[only] = true
				checkNext(t, live, start)
			}
		}
	}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		n := 1 << (1 + r.Intn(11))
		live := make([]bool, n)
		density := r.Float64() * r.Float64()
		for i := range live {
			live[i] = r.Float64() < density
		}
		checkNext(t, live, r.Intn(n))
		checkNext(t, live, n-1-r.Intn(min(n, 64)))
	}
}

// pathUndo applies path-history undo entries, as a predictor's repair
// does.
type pathUndo struct{ p *dolcPath }

func (u pathUndo) applyUndo(e *specUndo) { u.p.undoPush(e) }

// fuzzDOLC derives a valid DOLC from five bytes: any depth up to
// MaxHistoryDepth, any O (including 0), and an F chosen among the
// divisors of the intermediate length that keep the index within 30
// bits — intermediate indices longer than 64 bits included.
func fuzzDOLC(b []byte) DOLC {
	d := DOLC{Depth: int(b[0]) % (MaxHistoryDepth + 1), Older: int(b[1]) % 10,
		Last: int(b[2]) % 12, Current: int(b[3]) % 16}
	if d.IntermediateBits() == 0 {
		d.Current = 1
	}
	ib := d.IntermediateBits()
	var folds []int
	for f := 1; f <= ib; f++ {
		if ib%f == 0 && ib/f <= 30 {
			folds = append(folds, f)
		}
	}
	d.Folds = folds[int(b[4])%len(folds)]
	return d
}

// FuzzPathIndex drives a dolcPath, eager or lazy, through random
// pushes, speculative pushes and their undo, history bit flips and
// resets, and checks after every operation that the derived index
// equals DOLC.Index over the ring for a random current task.
func FuzzPathIndex(f *testing.F) {
	f.Add([]byte{7, 5, 6, 6, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})    // the flagship 7-5-6-6-3
	f.Add([]byte{0, 0, 0, 14, 0, 0, 9, 0, 9, 4, 1, 2})            // D=0
	f.Add([]byte{1, 0, 7, 7, 0, 1, 1, 3, 3, 2, 2, 0})             // D=1, O=0, F=1
	f.Add([]byte{11, 9, 11, 15, 1, 0, 0, 0, 0, 0, 0, 3, 2, 1, 4}) // 112-bit intermediate
	f.Add([]byte{4, 0, 3, 5, 3, 1, 0, 1, 0, 2, 0, 3, 0, 4, 0})    // O=0 at D>=2
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		d := fuzzDOLC(data)
		if err := d.Validate(); err != nil {
			t.Fatalf("fuzzDOLC produced invalid %v: %v", d, err)
		}
		p := newDolcPath(d, data[0]&0x80 == 0)
		var log undoRing
		r := rand.New(rand.NewSource(int64(len(data))))
		check := func(op string) {
			cur := isa.Addr(r.Uint32())
			if got, want := p.index(cur), d.Index(&p.hist, cur); got != want {
				t.Fatalf("%v after %s: index(%#x) = %#x, DOLC.Index = %#x", d, op, cur, got, want)
			}
		}
		for _, b := range data[5:] {
			switch b % 5 {
			case 0:
				p.push(isa.Addr(r.Uint32()))
				check("push")
			case 1:
				logPathHist(&log, &p.hist)
				p.push(isa.Addr(r.Uint32()))
				check("spec push")
			case 2:
				if log.n > 0 {
					log.repairTo(log.mark()-1, pathUndo{&p})
				}
				check("undo")
			case 3:
				p.flipBit(func(n int) int { return r.Intn(n) })
				check("FlipBit")
			default:
				p.reset()
				log.reset()
				check("Reset")
			}
		}
	})
}
