package main

import (
	"fmt"
	"strings"

	"multiscalar/internal/engine"
	"multiscalar/internal/experiments"
)

// family is one predictor family of the per-layer ledger: a
// representative spec from experiments.AllSpecs(), the replay mode the
// experiment grids run it in, and a fault spec for the faulted family.
type family struct {
	name  string
	spec  string
	mode  engine.Mode
	fault string
}

// faultRate is the fault-sweep point the composed_fault family replays.
const faultRate = 1e-2

// families lists the ledger's predictor families, ideal first, then
// realizable, then the update-timing variants of the PATH and composed
// predictors.
func families() []family {
	path := experiments.PathSpec(experiments.Depth7Exit)
	std := experiments.StdSpec()
	return []family{
		{"ipath", "ipath:d7:leh2", engine.ModeExit, ""},
		{"iglobal", "iglobal:d7:leh2", engine.ModeExit, ""},
		{"iper", "iper:d7:leh2", engine.ModeExit, ""},
		{"icttb", "icttb:d7", engine.ModeTarget, ""},
		{"path", path, engine.ModeExit, ""},
		{"global", "global:d7-c14-i14:leh2", engine.ModeExit, ""},
		{"per", "per:d7-h12-t14-i14:leh2", engine.ModeExit, ""},
		{"cttb", experiments.CTTBSpec(experiments.Depth7CTTBSmall), engine.ModeTarget, ""},
		{"composed", std, engine.ModeTask, ""},
		{"composed_fault", std, engine.ModeTask,
			fmt.Sprintf("all=%g,seed=%d", faultRate, experiments.FaultSweepSeed)},
		{"path_spec", path + ":dlat4:spec", engine.ModeExit, ""},
		{"composed_spec", std + ":spec:rlat8", engine.ModeTask, ""},
		{"path_lat", path + ":lat4", engine.ModeExit, ""},
		{"path_dlat", path + ":dlat4", engine.ModeExit, ""},
	}
}

// checkFamilies verifies every family's spec is one the experiment grids
// use, that the family classifies as itself, and that the fault rate is
// a fault-sweep point — so the ledger keeps measuring what the
// workloads run.
func checkFamilies() error {
	inGrid := map[string]bool{}
	for _, s := range experiments.AllSpecs() {
		inGrid[s] = true
	}
	for _, f := range families() {
		if !inGrid[f.spec] {
			return fmt.Errorf("family %s: spec %q is not in experiments.AllSpecs()", f.name, f.spec)
		}
		if got := familyOf(f.spec, f.mode.String(), f.fault != ""); got != f.name {
			return fmt.Errorf("family %s: spec %q classifies as %s", f.name, f.spec, got)
		}
	}
	for _, r := range experiments.FaultSweepRates {
		if r == faultRate {
			return nil
		}
	}
	return fmt.Errorf("fault rate %g is not a fault-sweep point", faultRate)
}

// familyOf names the family of one grid cell from its spec string and
// resolved mode, as the engine's run spans record them. Every timing
// cell is "timing". Faulted cells are "composed_fault"; the engine's span
// does not carry the fault spec, so the caller says whether the cell ran
// under fault-sweep (whose rate-0 baseline cells are counted there too).
// Otherwise the family is the spec's scheme, suffixed with _spec, _lat or
// _dlat when the spec carries that update-timing flag.
func familyOf(spec, mode string, faulted bool) string {
	if mode == engine.ModeTiming.String() {
		return "timing"
	}
	segs := strings.Split(spec, ":")
	if faulted && segs[0] == "composed" {
		return "composed_fault"
	}
	suffix := ""
	for _, s := range segs[1:] {
		switch {
		case s == "spec":
			suffix = "_spec"
		case suffix == "" && flagWithCount(s, "lat"):
			suffix = "_lat"
		case suffix == "" && flagWithCount(s, "dlat"):
			suffix = "_dlat"
		}
	}
	return segs[0] + suffix
}

// flagWithCount reports whether seg is prefix followed by digits.
func flagWithCount(seg, prefix string) bool {
	rest, ok := strings.CutPrefix(seg, prefix)
	if !ok || rest == "" {
		return false
	}
	for _, c := range rest {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// classOf groups a family: the alias-free map-keyed predictors, the
// realizable ones (idealized update timing, lat/dlat FIFOs included),
// the faulted composed replay, speculative-update sessions, and the ring
// timing model.
func classOf(fam string) string {
	switch {
	case fam == "timing":
		return "timing"
	case fam == "composed_fault":
		return "fault"
	case strings.HasSuffix(fam, "_spec"):
		return "spec"
	case strings.HasPrefix(fam, "ipath"), strings.HasPrefix(fam, "iglobal"),
		strings.HasPrefix(fam, "iper"), strings.HasPrefix(fam, "icttb"):
		return "ideal"
	}
	return "real"
}
