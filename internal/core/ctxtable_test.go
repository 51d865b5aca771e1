package core

import (
	"encoding/binary"
	"testing"
)

// ctxOracle replays one table operation against both the context table
// and a Go map, failing on any disagreement.
type ctxOracle struct {
	t    *testing.T
	tab  ctxTable
	want map[ctxKey]uint64
}

func newCtxOracle(t *testing.T) *ctxOracle {
	return &ctxOracle{t: t, tab: newCtxTable(), want: map[ctxKey]uint64{}}
}

// ctxFuzzKey spreads a small key id over all three key words, so probe
// runs see both distinct and colliding home slots.
func ctxFuzzKey(id uint16) ctxKey {
	x := uint64(id)
	return ctxKey{x & 0x3ff, (x >> 10) << 48, x * 0x10001 >> 14}
}

func (o *ctxOracle) op(code byte, id uint16, v uint64) {
	k := ctxFuzzKey(id)
	v &^= ctxLive
	switch code % 4 {
	case 0: // upsert, then write
		i, created := o.tab.upsert(&k, v)
		if _, had := o.want[k]; had == created {
			o.t.Fatalf("upsert %v: created=%v, oracle had=%v", k, created, had)
		}
		o.tab.setState(i, v)
		o.want[k] = v
	case 1: // delete
		o.tab.delete(&k)
		delete(o.want, k)
	case 2: // lookup
		i, ok := o.tab.probe(&k)
		w, had := o.want[k]
		if ok != had || (ok && o.tab.state(i) != w) {
			o.t.Fatalf("probe %v: found=%v, oracle had=%v", k, ok, had)
		}
	case 3: // bulk insert: drives the table through growth
		for j := uint16(0); j < 64; j++ {
			o.op(0, id+j*977, v+uint64(j))
		}
	}
	if o.tab.len() != len(o.want) {
		o.t.Fatalf("len %d, oracle %d", o.tab.len(), len(o.want))
	}
}

// check verifies every oracle key is present with its state and that
// the live-slot count matches.
func (o *ctxOracle) check() {
	live := 0
	for _, s := range o.tab.slots {
		if s.state != 0 {
			live++
		}
	}
	if live != len(o.want) {
		o.t.Fatalf("%d live slots, oracle holds %d", live, len(o.want))
	}
	for k, w := range o.want {
		i, ok := o.tab.probe(&k)
		if !ok || o.tab.state(i) != w {
			o.t.Fatalf("key %v lost or wrong after mutations", k)
		}
	}
}

// FuzzCtxTable runs random insert/lookup/delete sequences against a Go
// map oracle. Each 5-byte record is an opcode, a key id and a state.
func FuzzCtxTable(f *testing.F) {
	f.Add([]byte{3, 1, 0, 9, 0, 3, 2, 0, 7, 0, 1, 1, 0, 0, 0, 2, 1, 0, 0, 0})
	grow := []byte{}
	for i := 0; i < 12; i++ {
		grow = append(grow, 3, byte(i), byte(i*7), byte(i), 0)
	}
	for i := 0; i < 200; i++ {
		grow = append(grow, 1, byte(i), byte(i*7), 0, 0, 2, byte(i+1), byte(i*7), 0, 0)
	}
	f.Add(grow)
	f.Fuzz(func(t *testing.T, data []byte) {
		o := newCtxOracle(t)
		for len(data) >= 5 {
			o.op(data[0], binary.LittleEndian.Uint16(data[1:]), uint64(binary.LittleEndian.Uint16(data[3:])))
			data = data[5:]
		}
		o.check()
	})
}

// A long deterministic sequence: growth to thousands of keys, then
// deletes that interleave with further inserts after every growth.
func TestCtxTableMatchesMap(t *testing.T) {
	o := newCtxOracle(t)
	r := newRNG(3)
	for step := 0; step < 60000; step++ {
		code := byte(r.intn(4))
		if step > 40000 {
			code = byte(1 + r.intn(2)) // drain: deletes and lookups
		}
		o.op(code, uint16(r.intn(1<<14)), uint64(r.next()))
		if step%5000 == 0 {
			o.check()
		}
	}
	o.check()
	if len(o.tab.slots) <= ctxInitSlots {
		t.Fatalf("table never grew (%d slots)", len(o.tab.slots))
	}
}

func TestCtxTableResetKeepsCapacity(t *testing.T) {
	tab := newCtxTable()
	for id := uint16(0); id < 1000; id++ {
		k := ctxFuzzKey(id)
		tab.upsert(&k, 1)
	}
	n := len(tab.slots)
	tab.reset()
	k := ctxFuzzKey(5)
	if _, ok := tab.probe(&k); ok || tab.len() != 0 || len(tab.slots) != n {
		t.Fatalf("reset: len %d, slots %d (was %d), key still found=%v", tab.len(), len(tab.slots), n, ok)
	}
}
