package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, 2, 5},
	} {
		q1, q3, ok := quartiles(c.xs)
		if !ok || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 90, 90, true}, // 10 samples above the 90th
		{99, 90, 90, false}, // 9 above
		{20, 50, 10, true},
		{19, 50, 10, false},
		{1000, 99, 990, true},
		{999, 99, 990, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range []string{"wall_s", "exp.extension-ooo.cold_ms", "9lives", "a"} {
		if err := checkName(ok, "ms"); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "b"
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "a:b", long} {
		if checkName(bad, "ms") == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, ok := range []string{"ms", "1/s", "%", "count", "MB"} {
		if err := checkName("x", ok); err != nil {
			t.Errorf("unit %q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"", "m s", "seconds-per-request", "µs"} {
		if checkName("x", bad) == nil {
			t.Errorf("unit %q accepted", bad)
		}
	}
	seen := map[string]bool{}
	for _, sp := range append(append([]spec(nil), endToEnd...), perLayer()...) {
		if err := checkName(sp.name, sp.unit); err != nil {
			t.Error(err)
		}
		if seen[sp.name] {
			t.Errorf("metric %s declared twice", sp.name)
		}
		seen[sp.name] = true
	}
}

// benchFile is the part of BENCHMARK.json the benchmark must agree with.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	bf := readBenchFile(t)
	check := func(kind string, declared []benchMetric, measured []spec, bounded bool) {
		if len(declared) != len(measured) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(declared), len(measured))
		}
		for i := 0; i < len(declared) && i < len(measured); i++ {
			d, m := declared[i], measured[i]
			if d.Name != m.name || d.Unit != m.unit {
				t.Errorf("%s[%d]: declared %s (%s), reported %s (%s)", kind, i, d.Name, d.Unit, m.name, m.unit)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s: better %q", d.Name, d.Better)
			}
			if bounded != (d.Bound != nil) {
				t.Errorf("%s: bound present = %v, want %v", d.Name, d.Bound != nil, bounded)
			}
			if d.Bound != nil && (*d.Bound <= 0 || *d.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, *d.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer(), false)
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	var setupBound, maxBound float64
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" {
			setupBound = *m.Bound
		}
		maxBound = math.Max(maxBound, *m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	at := func(ms int) int64 { return int64(time.Duration(ms) * time.Millisecond) }
	parent := span{ID: 1, Start: at(0), End: at(100)}
	spans := []span{
		parent,
		{ID: 2, Parent: 1, Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Start: at(20), End: at(50)},
		{ID: 4, Parent: 1, Start: at(70), End: at(80)},
		{ID: 5, Parent: 4, Start: at(0), End: at(100)},  // grandchild: ignored
		{ID: 6, Parent: 1, Start: at(95), End: at(120)}, // clipped to the parent
	}
	if got, want := selfTime(parent, spans), 45*time.Millisecond; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
}

func TestSeededGridIsStableAndSized(t *testing.T) {
	a, pa := seededGrid(7)
	b, pb := seededGrid(7)
	c, _ := seededGrid(8)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	jc, _ := json.Marshal(c)
	if string(ja) != string(jb) || string(ja) == string(jc) {
		t.Error("the grid is not a function of the seed alone")
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("the pre-filled set is not a function of the seed alone")
		}
	}
	if n, want := countTrue(pa), int(float64(len(pa))*prefillShare); n != want {
		t.Errorf("pre-filled %d of %d cells, want %d", n, len(pa), want)
	}
	if len(pa) < 4*1044 {
		t.Errorf("grid has %d cells; it must be much larger than sweeptest's 1044", len(pa))
	}
}
