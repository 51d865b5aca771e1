package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"multiscalar/internal/experiments"
)

// digestsJSON holds the SHA-256 of every runner's rendered bytes, per
// trace cap, recorded by `perfbench -record-digests` at this
// benchmark's timing budget.
//
//go:embed digests.json
var digestsJSON []byte

// digestFile is the layout of digests.json.
type digestFile struct {
	TimingSteps int `json:"timing_steps"`
	// Caps maps a trace cap (decimal) to runner name → hex digest.
	Caps map[string]map[string]string `json:"caps"`
}

// committedDigests returns the runner → digest table for stepCap.
func committedDigests(stepCap int) (map[string]string, error) {
	var f digestFile
	if err := json.Unmarshal(digestsJSON, &f); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	if f.TimingSteps != timingSteps {
		return nil, fmt.Errorf("digests.json was recorded at timing budget %d, benchmark uses %d",
			f.TimingSteps, timingSteps)
	}
	d, ok := f.Caps[strconv.Itoa(stepCap)]
	if !ok {
		return nil, fmt.Errorf("digests.json has no digests for cap %d", stepCap)
	}
	return d, nil
}

// render runs one experiment and returns the digest of its output.
func render(name string, cfg experiments.Config) (string, error) {
	r, err := experiments.ByName(name)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := r.Run(&buf, cfg); err != nil {
		return "", fmt.Errorf("%s: %w", name, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// checkedRender renders one runner and compares its digest with the
// committed one. Any error or mismatch is a failed operation.
func checkedRender(name string, cfg experiments.Config, want map[string]string) error {
	got, err := render(name, cfg)
	if err != nil {
		return err
	}
	if w, ok := want[name]; !ok {
		return fmt.Errorf("%s: no committed digest", name)
	} else if got != w {
		return fmt.Errorf("%s: output digest %s, committed %s", name, got[:12], w[:12])
	}
	return nil
}

// recordDigests renders every runner of every workload at every cap and
// writes the table to path.
func recordDigests(path string) error {
	f := digestFile{TimingSteps: timingSteps, Caps: map[string]map[string]string{}}
	for _, stepCap := range stepCaps {
		d := map[string]string{}
		for _, w := range workloads {
			for _, name := range w.runners {
				sum, err := render(name, expConfig(stepCap, nproc()))
				if err != nil {
					return err
				}
				d[name] = sum
				fmt.Fprintf(os.Stderr, "perfbench: cap %d %s %s\n", stepCap, name, sum[:12])
			}
		}
		f.Caps[strconv.Itoa(stepCap)] = d
	}
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
