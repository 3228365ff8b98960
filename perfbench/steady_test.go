package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

var (
	steadyRuns      = flag.Int("steady", 0, "run every workload this many times, one seed each, and check each end-to-end metric's spread against its bound (0 skips)")
	steadySeed      = flag.Int64("steady-seed", 1, "first seed of the steadiness runs")
	steadyWorkloads = flag.String("steady-workloads", "", "comma-separated workloads to check (default all)")
)

// TestSteadiness is the benchmark's self-check. It runs the benchmark
// through its build script, -steady times per workload with consecutive
// seeds, and reports each end-to-end metric's median and quartile spread
// (Python's statistics.quantiles, exclusive method) against its bound. A
// spread above the bound fails, except setup_s's, which is held to its
// bound only between medians; so does any run that is not correct. Run it
// from this directory, for example:
//
//	go test -run TestSteadiness -steady 10 -timeout 0 -v
func TestSteadiness(t *testing.T) {
	if *steadyRuns == 0 {
		t.Skip("pass -steady N to run each workload N times")
	}
	bf := readBenchFile(t)
	only := map[string]bool{}
	for _, w := range strings.Split(*steadyWorkloads, ",") {
		if w != "" {
			only[w] = true
		}
	}
	for _, w := range bf.Workloads {
		if len(only) > 0 && !only[w.Name] {
			continue
		}
		values := map[string][]float64{}
		for i := 0; i < *steadyRuns; i++ {
			seed := *steadySeed + int64(i)
			res, summary, err := runOnce(bf, w.Name, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			t.Logf("%s seed %d: %s", w.Name, seed, summary)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s seed %d: correct=%v, %d of %d operations failed", w.Name, seed, res.Correct, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		t.Logf("%s: %d runs, seeds %d..%d", w.Name, *steadyRuns, *steadySeed, *steadySeed+int64(*steadyRuns)-1)
		t.Logf("  %-12s %12s %12s %12s %8s %8s", "metric", "median", "q1", "q3", "spread", "bound")
		for _, m := range bf.EndToEnd {
			xs := values[m.Name]
			if len(xs) != *steadyRuns {
				t.Errorf("%s: %s reported by %d of %d runs", w.Name, m.Name, len(xs), *steadyRuns)
				continue
			}
			q1, q3, _ := quartiles(xs)
			sp := spread(xs)
			verdict := "ok"
			switch {
			case m.Name == "setup_s":
				verdict = "(not held)"
			case sp > *m.Bound:
				verdict = "OVER BOUND"
				t.Errorf("%s: %s spread %.4f exceeds its bound %.4f", w.Name, m.Name, sp, *m.Bound)
			case sp > *m.Bound/3:
				verdict = "over a third of the bound"
			}
			t.Logf("  %-12s %12.4f %12.4f %12.4f %8.4f %8.4f  %s", m.Name, median(xs), q1, q3, sp, *m.Bound, verdict)
		}
	}
}

type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOnce runs the benchmark command from the repository root, as the
// benchmark file declares it, and parses its last line. It also returns
// the run's pass summary line.
func runOnce(bf benchFile, workload string, seed int64) (runResult, string, error) {
	args := append(append([]string(nil), bf.Command[1:]...), "--workload", workload,
		"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(bf.RunSeconds), "--trace", "0")
	cmd := exec.Command(bf.Command[0], args...)
	cmd.Dir = ".."
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return runResult{}, "", err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return runResult{}, "", fmt.Errorf("last line: %w", err)
	}
	summary := ""
	for _, l := range lines {
		if strings.HasPrefix(l, "passes:") {
			summary = l
		}
	}
	return res, summary, nil
}

// quartiles returns the first and third quartiles of xs by the exclusive
// method (Python's statistics.quantiles(xs, n=4), its default), which the
// steadiness rule is stated in. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := sorted(xs)
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3), true
}

// spread is the quartile spread of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(med)
}
