package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness tool reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method (Python's statistics.quantiles(xs, n=4)). xs
// must hold at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// steadiness runs workload w n times with seeds 1..n, each in its own
// process, and prints each metric's median and quartiles. For untraced
// runs it sets each metric's spread, (q3-q1)/median, against the bound in
// BENCHMARK.json: a spread under a third of the bound is steady.
func steadiness(w benchWorkload, n, seconds, traced int) error {
	if n < 2 {
		return fmt.Errorf("-steady needs at least 2 runs")
	}
	bounds := map[string]float64{}
	if traced == 0 {
		raw, err := os.ReadFile("BENCHMARK.json")
		if err != nil {
			return err
		}
		var bf benchmarkFile
		if err := json.Unmarshal(raw, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	defs := e2eMetrics
	if traced == 1 {
		defs = layerMetrics
	}
	values := map[string][]float64{}
	for seed := 1; seed <= n; seed++ {
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.Itoa(seed),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traced))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r runResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return fmt.Errorf("seed %d: result line: %w", seed, err)
		}
		if !r.Correct {
			return fmt.Errorf("seed %d: %d of %d operations failed", seed, r.Failed, r.Attempted)
		}
		for _, d := range defs {
			values[d.name] = append(values[d.name], r.Metrics[d.name].Value)
		}
		fmt.Fprintf(os.Stderr, "perfbench: steady %s run %d/%d done\n", w.name, seed, n)
	}
	fmt.Printf("%s, %d runs (seeds 1..%d), %ds each\n", w.name, n, n, seconds)
	fmt.Printf("%-44s %12s %12s %12s %8s %8s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, d := range defs {
		q1, q2, q3 := quartiles(values[d.name])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		bound, verdict := "-", ""
		if b, ok := bounds[d.name]; ok {
			bound = fmt.Sprintf("%.3f", b)
			switch {
			case d.name == "setup_s":
				verdict = "spread not gated"
			case spread < b/3:
				verdict = "steady"
			case spread <= b:
				verdict = "within bound"
			default:
				verdict = "TOO WIDE"
			}
		}
		fmt.Printf("%-44s %12.6g %12.6g %12.6g %8.4f %8s  %s\n", d.name, q1, q2, q3, spread, bound, verdict)
	}
	return nil
}
