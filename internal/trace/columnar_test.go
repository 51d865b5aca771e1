package trace

// Tests for the columnar trace encoding: lossless round trips through
// the in-memory columns and the MSTC on-disk framing, prefix-view
// sharing, encoder validation, cursor blocking, and decoder hardening
// against corrupt and truncated streams.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"maps"
	"reflect"
	"slices"
	"testing"

	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
)

func mustColumnar(t testing.TB, tr *Trace) *Columnar {
	t.Helper()
	c, err := FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestColumnarRoundTrip(t *testing.T) {
	tr := pingPong(500)
	c := mustColumnar(t, tr)
	if c.Len() != tr.Len() {
		t.Fatalf("Len = %d, want %d", c.Len(), tr.Len())
	}
	if c.PredictionSteps() != tr.PredictionSteps() {
		t.Fatalf("PredictionSteps = %d, want %d", c.PredictionSteps(), tr.PredictionSteps())
	}
	if !c.Halted() {
		t.Fatal("Halted = false on a halting trace")
	}
	got := c.Materialize()
	if !reflect.DeepEqual(got.Steps, tr.Steps) {
		t.Fatal("Materialize does not reproduce the original steps")
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestColumnarStatsMatchTrace(t *testing.T) {
	tr := pingPong(300)
	c := mustColumnar(t, tr)
	if c.DistinctTasks() != tr.DistinctTasks() {
		t.Errorf("DistinctTasks = %d, want %d", c.DistinctTasks(), tr.DistinctTasks())
	}
	if c.DynamicExitHistogram() != tr.DynamicExitHistogram() {
		t.Errorf("DynamicExitHistogram = %v, want %v", c.DynamicExitHistogram(), tr.DynamicExitHistogram())
	}
	if !reflect.DeepEqual(c.DynamicExitKinds(), tr.DynamicExitKinds()) {
		t.Errorf("DynamicExitKinds = %v, want %v", c.DynamicExitKinds(), tr.DynamicExitKinds())
	}
}

func TestColumnarPrefix(t *testing.T) {
	c := mustColumnar(t, pingPong(100)) // 201 steps, halt last
	p := c.Prefix(7)
	if p.Len() != 7 || p.PredictionSteps() != 7 || p.Halted() {
		t.Fatalf("Prefix(7): Len=%d pred=%d halted=%v", p.Len(), p.PredictionSteps(), p.Halted())
	}
	// The view shares backing arrays and the dictionary with its parent.
	if &p.exits[0] != &c.exits[0] || &p.taskIdx[0] != &c.taskIdx[0] || p.Dict != c.Dict {
		t.Fatal("Prefix does not share the parent's backing arrays")
	}
	if !p.shared {
		t.Fatal("Prefix view not marked shared")
	}
	if p.Footprint() >= c.Footprint() {
		t.Fatalf("shared view footprint %d not below owner footprint %d", p.Footprint(), c.Footprint())
	}
	if !reflect.DeepEqual(p.Materialize().Steps, c.Materialize().Steps[:7]) {
		t.Fatal("Prefix(7) does not materialize to the first 7 steps")
	}
	// A prefix covering the whole trace is the trace itself; negatives clamp.
	if c.Prefix(c.Len()) != c || c.Prefix(c.Len()+5) != c {
		t.Fatal("full-length Prefix should return the receiver")
	}
	if c.Prefix(-3).Len() != 0 {
		t.Fatal("negative Prefix should clamp to empty")
	}
	// A prefix stopping short of the halt step is not halted.
	if c.Prefix(c.Len() - 1).Halted() {
		t.Fatal("prefix before halt reported halted")
	}
}

func TestEncoderValidation(t *testing.T) {
	g := graph()
	cases := []Step{
		{Task: 9, Exit: 0, Target: 1},  // unknown task
		{Task: 1, Exit: 3, Target: 1},  // exit out of range for task 1 (2 exits)
		{Task: 2, Exit: 1, Target: 1},  // exit out of range for task 2 (1 exit)
		{Task: 1, Exit: -2, Target: 2}, // negative non-halt exit
	}
	for i, s := range cases {
		e := NewEncoder(g)
		err := e.Append([]Step{s})
		if err == nil {
			t.Errorf("case %d (%+v): invalid step encoded", i, s)
			continue
		}
		if !errors.Is(err, ErrNotColumnar) {
			t.Errorf("case %d: error %v does not wrap ErrNotColumnar", i, err)
		}
	}
	// A halt step is always legal, even at an address that is no task.
	e := NewEncoder(g)
	if err := e.Append([]Step{{Task: 9, Exit: HaltExit}}); err != nil {
		t.Fatalf("halt step rejected: %v", err)
	}
}

func TestEncoderDictLimit(t *testing.T) {
	// A graph-free encoder interns every address it sees; feeding it more
	// than DictLimit distinct addresses must fail with ErrNotColumnar, not
	// wrap the uint16 columns.
	e := NewEncoder(nil)
	steps := make([]Step, DictLimit/2+1)
	for i := range steps {
		steps[i] = Step{Task: isa.Addr(2 * i), Exit: 0, Target: isa.Addr(2*i + 1)}
	}
	err := e.Append(steps)
	if err == nil {
		t.Fatalf("%d distinct addresses encoded past DictLimit %d", 2*len(steps), DictLimit)
	}
	if !errors.Is(err, ErrNotColumnar) {
		t.Fatalf("dict overflow error %v does not wrap ErrNotColumnar", err)
	}
}

func TestCursorBlocks(t *testing.T) {
	c := mustColumnar(t, pingPong(5000)) // 10001 steps: 4096 + 4096 + 1809
	cur := c.Blocks()
	var ns []int
	pos := 0
	for {
		b, err := cur.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		ns = append(ns, b.N)
		// Zero-copy: the block's columns are subslices of the trace's.
		if &b.Exits[0] != &c.exits[pos] || &b.TaskIdx[0] != &c.taskIdx[pos] {
			t.Fatalf("block at %d is not a view of the trace columns", pos)
		}
		if b.Dict != c.Dict {
			t.Fatalf("block at %d does not share the dictionary", pos)
		}
		pos += b.N
	}
	if pos != c.Len() {
		t.Fatalf("cursor yielded %d steps, want %d", pos, c.Len())
	}
	want := []int{BlockSteps, BlockSteps, c.Len() - 2*BlockSteps}
	if !reflect.DeepEqual(ns, want) {
		t.Fatalf("block sizes %v, want %v", ns, want)
	}
	// A drained cursor stays drained.
	if b, err := cur.NextBlock(); b != nil || err != nil {
		t.Fatalf("drained cursor returned %v, %v", b, err)
	}
}

// colSample encodes a multi-block ping-pong trace into MSTC framing.
func colSample(t testing.TB, pairs int) (*Trace, []byte) {
	t.Helper()
	tr := pingPong(pairs)
	c := mustColumnar(t, tr)
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}

func TestColumnarFileRoundTrip(t *testing.T) {
	tr, raw := colSample(t, 5000)
	got, err := ReadColumnar(bytes.NewReader(raw), tr.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() || got.PredictionSteps() != tr.PredictionSteps() || !got.Halted() {
		t.Fatalf("decoded Len=%d pred=%d halted=%v", got.Len(), got.PredictionSteps(), got.Halted())
	}
	if !reflect.DeepEqual(got.Materialize().Steps, tr.Steps) {
		t.Fatal("file round trip is not lossless")
	}
	// Graph binding happened during decode: dictionary entries for task
	// addresses carry their tasks.
	if got.Dict.Entries[0].Task == nil {
		t.Fatal("decoded dictionary not bound to the graph")
	}
}

func TestWriterMatchesEncode(t *testing.T) {
	// Streaming blocks through Writer with arbitrary batch boundaries must
	// produce byte-identical output to whole-trace Encode.
	tr, want := colSample(t, 5000)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, tr.Graph)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(tr.Steps); lo += 999 {
		hi := lo + 999
		if hi > len(tr.Steps) {
			hi = len(tr.Steps)
		}
		if err := w.Append(tr.Steps[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("Writer output differs from Encode output")
	}
	// A closed writer refuses further use.
	if err := w.Append(tr.Steps[:1]); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}

func TestReadColumnarMaxSteps(t *testing.T) {
	tr, raw := colSample(t, 5000)
	if _, err := ReadColumnar(bytes.NewReader(raw), tr.Graph, 100); err == nil {
		t.Fatal("stream past maxSteps accepted")
	}
	if got, err := ReadColumnar(bytes.NewReader(raw), tr.Graph, tr.Len()); err != nil || got.Len() != tr.Len() {
		t.Fatalf("exact maxSteps: %v (len %d)", err, got.Len())
	}
}

// readAll drives the block reader over raw until exhaustion or error.
func readAll(raw []byte) error {
	cr, err := NewReader(bytes.NewReader(raw), nil)
	if err != nil {
		return err
	}
	for {
		b, err := cr.NextBlock()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
	}
}

func TestColumnarCorruption(t *testing.T) {
	_, raw := colSample(t, 5000)
	payloadLen := int(binary.LittleEndian.Uint32(raw[16:]))

	mut := func(f func(b []byte)) []byte {
		b := append([]byte(nil), raw...)
		f(b)
		return b
	}

	corrupt := []struct {
		name string
		data []byte
	}{
		{"bad magic", mut(func(b []byte) { b[0] ^= 0xff })},
		{"bad version", mut(func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 99) })},
		{"zero blockSteps", mut(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 0) })},
		{"huge blockSteps", mut(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 1<<21) })},
		{"block n over blockSteps", mut(func(b []byte) { binary.LittleEndian.PutUint32(b[20:], BlockSteps+1) })},
		{"payload over cap", mut(func(b []byte) { binary.LittleEndian.PutUint32(b[16:], 1<<30) })},
		{"payload byte flipped", mut(func(b []byte) { b[28+payloadLen/2] ^= 0xff })},
	}
	for _, c := range corrupt {
		err := readAll(c.data)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v is not ErrCorrupt", c.name, err)
		}
	}

	truncated := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"mid file header", raw[:7]},
		{"header only", raw[:16]},
		{"mid block header", raw[:20]},
		{"mid payload", raw[:28+payloadLen/2]},
		{"missing sentinel", raw[:len(raw)-12]},
		{"mid sentinel", raw[:len(raw)-5]},
	}
	for _, c := range truncated {
		err := readAll(c.data)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: error %v is not ErrTruncated", c.name, err)
		}
	}
}

func TestColumnarGraphInconsistencyRejected(t *testing.T) {
	// Encode structurally (nil graph) a step whose exit index is out of
	// range for its task, then decode bound to the graph: the decoder must
	// reject it even though the framing and CRC are pristine.
	e := NewEncoder(nil)
	if err := e.Append([]Step{
		{Task: 2, Exit: 2, Target: 1}, // task 2 has a single exit
		{Task: 1, Exit: HaltExit},
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Finish().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := ReadColumnar(bytes.NewReader(buf.Bytes()), graph(), 0)
	if err == nil {
		t.Fatal("graph-inconsistent exit accepted")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v is not ErrCorrupt", err)
	}
}

// FuzzColumnarRead drives the hardened MSTC decoder with arbitrary
// bytes: it must return a trace or a typed error, never panic, and a
// successful parse must be size-consistent with the input (every step
// costs at least two payload bytes).
func FuzzColumnarRead(f *testing.F) {
	_, raw := colSample(f, 200)
	f.Add(raw)
	f.Add(raw[:16])
	f.Add(raw[:40])
	f.Add([]byte("MSTCgarbage"))
	f.Add([]byte{})
	bad := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(bad[16:], 1<<30)
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadColumnar(bytes.NewReader(data), nil, 1<<20)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if 2*c.Len() > len(data) {
			t.Fatalf("parsed %d steps from %d bytes", c.Len(), len(data))
		}
	})
}

// TestColumnarChecksumDetectsFlips plants a one-entry change in a
// private copy of each column and of the dictionary, at the first, a
// middle and the last position (full words and the zero-padded tail
// alike): every one must change the checksum, and the untouched copy
// must not.
func TestColumnarChecksumDetectsFlips(t *testing.T) {
	c := mustColumnar(t, pingPong(601)) // 1203 steps: no column is a whole number of words
	sum := c.Checksum()
	if cp := *c; cp.Checksum() != sum {
		t.Fatal("an untouched copy hashes differently")
	}
	flips := map[string]func(cp *Columnar, i int) int{
		"taskIdx": func(cp *Columnar, i int) int {
			cp.taskIdx = slices.Clone(cp.taskIdx)
			i %= len(cp.taskIdx)
			cp.taskIdx[i] ^= 1
			return i
		},
		"exits": func(cp *Columnar, i int) int {
			cp.exits = slices.Clone(cp.exits)
			i %= len(cp.exits)
			cp.exits[i] ^= 1
			return i
		},
		"targetIdx": func(cp *Columnar, i int) int {
			cp.targetIdx = slices.Clone(cp.targetIdx)
			i %= len(cp.targetIdx)
			cp.targetIdx[i] ^= 0x100
			return i
		},
		"dict": func(cp *Columnar, i int) int {
			cp.Dict = &Dict{Entries: slices.Clone(cp.Dict.Entries)}
			i %= len(cp.Dict.Entries)
			cp.Dict.Entries[i].Addr ^= 1 << 20
			return i
		},
	}
	for name, flip := range flips {
		for _, pos := range []int{0, c.Len() / 2, c.Len() - 1} {
			cp := *c
			i := flip(&cp, pos)
			if cp.Checksum() == sum {
				t.Errorf("%s[%d] flipped: checksum unchanged", name, i)
			}
			if c.Checksum() != sum {
				t.Fatalf("%s[%d] flip wrote through to the original", name, i)
			}
		}
	}
}

// TestColumnarValidateMatchesTrace runs TestValidateRejects' mutations
// through the columnar encoding: Columnar.Validate must fail exactly
// where Trace.Validate does, with the same message.
func TestColumnarValidateMatchesTrace(t *testing.T) {
	if err := mustColumnar(t, pingPong(3)).Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	mutations := []func(g *tfg.Graph){
		func(g *tfg.Graph) { delete(g.Tasks, 2) }, // a target that starts no task
		func(g *tfg.Graph) { // a header target the trace contradicts
			t1 := *g.Tasks[1]
			t1.Exits = slices.Clone(t1.Exits)
			t1.Exits[0].Target = 7
			g.Tasks[1] = &t1
		},
		func(g *tfg.Graph) { // an exit index past the header
			t2 := *g.Tasks[2]
			t2.Exits = nil
			g.Tasks[2] = &t2
		},
	}
	for i, mutate := range mutations {
		c := mustColumnar(t, pingPong(3))
		g := *c.Graph
		g.Tasks = maps.Clone(g.Tasks)
		mutate(&g)
		c.Graph = &g
		got, want := c.Validate(), c.Materialize().Validate()
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Errorf("mutation %d: Columnar.Validate = %v, Trace.Validate = %v", i, got, want)
		}
	}
}
