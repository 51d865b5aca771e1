package main

import (
	"encoding/json"
	"os"
	"testing"

	"multiscalar/internal/obs"
)

// TestDigestsAtAnyWorkerCount pins the output check: every runner's
// digest at nproc workers (the untraced run) equals its digest at one
// worker with observability on (the traced run), and both equal the
// committed digest.
func TestDigestsAtAnyWorkerCount(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every runner twice")
	}
	stepCap := stepCaps[0]
	want, err := committedDigests(stepCap)
	if err != nil {
		t.Fatal(err)
	}
	parallel := map[string]string{}
	for _, w := range workloads {
		for _, name := range w.runners {
			if parallel[name], err = render(name, expConfig(stepCap, nproc())); err != nil {
				t.Fatal(err)
			}
		}
	}
	obs.SetTracer(obs.NewTracer())
	obs.SetEnabled(true)
	defer func() {
		obs.SetEnabled(false)
		obs.SetTracer(nil)
	}()
	for _, w := range workloads {
		for _, name := range w.runners {
			traced, err := render(name, expConfig(stepCap, 1))
			if err != nil {
				t.Fatal(err)
			}
			if traced != parallel[name] {
				t.Errorf("%s: %d-worker digest %s, traced 1-worker digest %s", name, nproc(), parallel[name], traced)
			}
			if traced != want[name] {
				t.Errorf("%s: traced digest %s, committed %s", name, traced, want[name])
			}
		}
	}
}

// TestBenchmarkJSONListsEveryMetric checks BENCHMARK.json against the
// workloads and metrics the benchmark defines.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var bf struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []entry, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark prints %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if want := (entry{d.name, d.unit, better}); got[i] != want {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, e2eMetrics)
	check("per_layer", bf.PerLayer, layerMetrics)
}

func TestFamiliesClassifyAsThemselves(t *testing.T) {
	if err := checkFamilies(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		spec, mode string
		faulted    bool
		fam, class string
	}{
		{"ipath:d3:leh2", "exit", false, "ipath", "ideal"},
		{"icttb:d0", "target", false, "icttb", "ideal"},
		{"path:d7-o5-l6-c6-f3:leh2:dlat2:spec", "exit", false, "path_spec", "spec"},
		{"path:d7-o5-l6-c6-f3:leh2:lat8", "exit", false, "path_lat", "real"},
		{"composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3", "task", true, "composed_fault", "fault"},
		{"composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3:spec:rlat8", "timing", false, "timing", "timing"},
		{"cttb:d7-o5-l6-c6-f3", "task", false, "cttb", "real"},
	}
	for _, c := range cases {
		fam := familyOf(c.spec, c.mode, c.faulted)
		if fam != c.fam || classOf(fam) != c.class {
			t.Errorf("%s (%s): family %s class %s, want %s %s", c.spec, c.mode, fam, classOf(fam), c.fam, c.class)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCapForSeedCoversEveryCap(t *testing.T) {
	seen := map[int]bool{}
	for seed := int64(-3); seed < 6; seed++ {
		seen[capForSeed(seed)] = true
	}
	if len(seen) != len(stepCaps) {
		t.Errorf("seeds reach %d of %d caps", len(seen), len(stepCaps))
	}
}
