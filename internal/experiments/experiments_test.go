package experiments

import (
	"io"
	"strings"
	"testing"
)

// quickCfg truncates traces so the full experiment matrix stays fast in
// unit tests; shape assertions that need statistics use larger steps and
// are skipped in -short mode.
var quickCfg = Config{MaxSteps: 40000, TimingSteps: 20000}

func TestEveryExperimentRuns(t *testing.T) {
	for _, r := range All() {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			t.Parallel()
			var b strings.Builder
			if err := r.Run(&b, quickCfg); err != nil {
				t.Fatalf("%s: %v", r.Name, err)
			}
			out := b.String()
			if !strings.Contains(out, "##") || !strings.Contains(out, "%") && r.Name != "fig11" && r.Name != "table2" && r.Name != "table4" {
				t.Errorf("%s: output looks empty:\n%s", r.Name, out)
			}
		})
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("fig7"); err != nil {
		t.Fatalf("fig7 missing: %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatalf("unknown experiment resolved")
	}
}

func TestDOLCFamiliesMatchDepths(t *testing.T) {
	for i, d := range ExitDOLC14 {
		if d.Depth != i || d.IndexBits() != 14 {
			t.Errorf("ExitDOLC14[%d] = %v (bits %d)", i, d, d.IndexBits())
		}
	}
	for i, d := range CTTBDOLC11 {
		if d.Depth != i || d.IndexBits() != 11 {
			t.Errorf("CTTBDOLC11[%d] = %v (bits %d)", i, d, d.IndexBits())
		}
	}
}

// Shape assertions on moderately sized traces. These encode the paper's
// qualitative claims; EXPERIMENTS.md records the full-trace numbers.

func TestFig6AutomataStratify(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical shape test")
	}
	data, err := Figure6Data(Config{MaxSteps: 400000})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]float64{}
	for _, r := range data {
		byName[r.Automaton] = r.Miss
	}
	at7 := func(name string) float64 { return byName[name][7] }
	// LE is strictly worst; LEH-2 ties the 3-bit voting counters and
	// beats the 2-bit tier.
	for _, other := range []string{"LEH-2bit", "LEH-1bit", "3bit-VC-MRU", "2bit-VC-MRU"} {
		if at7("LE") <= at7(other) {
			t.Errorf("LE (%.4f) should be worse than %s (%.4f)", at7("LE"), other, at7(other))
		}
	}
	if at7("LEH-2bit") >= at7("LEH-1bit") {
		t.Errorf("LEH-2 (%.4f) should beat LEH-1 (%.4f)", at7("LEH-2bit"), at7("LEH-1bit"))
	}
	// LEH-2 within 5% relative of 3bit-VC-MRU (the paper: "nearly
	// identical").
	if diff := at7("LEH-2bit") - at7("3bit-VC-MRU"); diff > 0.05*at7("3bit-VC-MRU") {
		t.Errorf("LEH-2 (%.4f) not near 3bit-VC-MRU (%.4f)", at7("LEH-2bit"), at7("3bit-VC-MRU"))
	}
}

func TestFig7PathDominatesGlobalAndWinsOverall(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical shape test")
	}
	data, err := Figure7Data(Config{MaxSteps: 400000})
	if err != nil {
		t.Fatal(err)
	}
	pathWins := 0
	for _, s := range data {
		// Depth 0: all schemes coincide.
		if s.Global[0] != s.Per[0] || s.Per[0] != s.Path[0] {
			t.Errorf("%s: depth-0 rates differ: %v %v %v", s.Workload, s.Global[0], s.Per[0], s.Path[0])
		}
		// PATH never loses to GLOBAL by more than noise at depth 7.
		if s.Path[7] > s.Global[7]*1.02+0.0005 {
			t.Errorf("%s: PATH (%.4f) worse than GLOBAL (%.4f) at depth 7",
				s.Workload, s.Path[7], s.Global[7])
		}
		// Depth helps (weak monotonicity end-to-end).
		if s.Path[7] > s.Path[0]+0.0005 {
			t.Errorf("%s: PATH depth 7 (%.4f) worse than depth 0 (%.4f)",
				s.Workload, s.Path[7], s.Path[0])
		}
		if s.Path[7] <= s.Per[7] {
			pathWins++
		}
	}
	if pathWins < 4 {
		t.Errorf("PATH should beat PER on at least 4 of 5 workloads, won %d", pathWins)
	}
}

func TestFig8CorrelationRescuesTargetPrediction(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical shape test")
	}
	data, err := Figure8Data(Config{MaxSteps: 600000})
	if err != nil {
		t.Fatal(err)
	}
	for name, series := range data {
		if series[0] < 0.3 {
			t.Errorf("%s: naive TTB limit suspiciously good (%.2f)", name, series[0])
		}
		if series[8] >= series[0] {
			t.Errorf("%s: correlation does not help (%.2f -> %.2f)", name, series[0], series[8])
		}
	}
}

func TestTable3CTTBOnlyIsWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical shape test")
	}
	data, err := Table3Data(Config{MaxSteps: 400000})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range data {
		if r.CTTBOnly < r.Header-0.0005 {
			t.Errorf("%s: CTTB-only (%.4f) beats the header predictor (%.4f)",
				r.Workload, r.CTTBOnly, r.Header)
		}
	}
}

func TestTable4Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("timing shape test")
	}
	data, err := Table4Data(Config{TimingSteps: 100000})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range data {
		perfect, path, simple := r.IPC["Perfect"], r.IPC["PATH"], r.IPC["Simple"]
		if !(perfect >= path && path >= simple-0.02) {
			t.Errorf("%s: IPC ordering violated: simple %.3f path %.3f perfect %.3f",
				r.Workload, simple, path, perfect)
		}
	}
}

func TestFig11StatesIdealExceedsReal(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical shape test")
	}
	data, err := Figure11Data(Config{MaxSteps: 400000})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range data {
		if s.Ideal[7] < s.Real[7] {
			t.Errorf("%s: ideal states (%d) below real (%d) at depth 7",
				s.Workload, s.Ideal[7], s.Real[7])
		}
		if s.Ideal[7] <= s.Ideal[0] {
			t.Errorf("%s: ideal states do not grow with depth", s.Workload)
		}
	}
}

var _ io.Writer = (*strings.Builder)(nil)

// TestWorkerCountInvariance is the paper-harness half of the scheduler's
// determinism contract: a rendered experiment is byte-identical whether
// its grid ran on one worker or eight. The sample covers the exit-replay,
// task-replay, timing, and fault-injection paths; scripts/check.sh runs
// this package under -race as well.
func TestWorkerCountInvariance(t *testing.T) {
	for _, name := range []string{"fig7", "table3", "table4", "fault-sweep"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			render := func(workers int) string {
				cfg := quickCfg
				cfg.Workers = workers
				var b strings.Builder
				if err := r.Run(&b, cfg); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return b.String()
			}
			seq := render(1)
			if par := render(8); par != seq {
				t.Fatalf("output differs between 1 and 8 workers:\n--- workers=1\n%s\n--- workers=8\n%s", seq, par)
			}
		})
	}
}

// TestRunnersResolveDefaults pins the run-configuration contract: a
// runner renders the same bytes from a Config with zero ("default")
// fields as from the resolved Config the journal keys it by. The
// default timing budget is lowered for the test so every timing cell
// stays small; the contract does not depend on its value.
func TestRunnersResolveDefaults(t *testing.T) {
	defer func(n int) { defaultTimingSteps = n }(defaultTimingSteps)
	defaultTimingSteps = 3000
	cfg := Config{MaxSteps: 4000}
	for _, r := range All() {
		var raw, resolved strings.Builder
		if err := r.Run(&raw, cfg); err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if err := r.Run(&resolved, cfg.withDefaults()); err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if raw.String() != resolved.String() {
			t.Errorf("%s renders differently from Config%+v and its resolved form %+v", r.Name, cfg, cfg.withDefaults())
		}
	}
}
