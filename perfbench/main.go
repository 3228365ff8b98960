// Command perfbench is the decvec benchmark: it measures the simulator's
// host-time cost end to end on three named workloads and, in a separate
// traced run, layer by layer. See README.md in this directory.
//
// Usage (from the repository root, through the build script):
//
//	bash perfbench/run.sh --workload paper-cold|dvad-sweep \
//	    --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 they are the per-layer ones, and the run
// also writes its spans as a Trace Event Format file under the work
// directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// tally counts operations against failures; every failure keeps a note for
// the log.
type tally struct {
	attempted, failed int64
	notes             []string
}

func (t *tally) op(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.fail(format, args...)
	}
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.notes) < 20 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	work     string // scratch directory inside the checkout
	self     string // this binary, re-executed for every pass
}

// workloads maps each workload name to its untraced run.
var workloads = map[string]func(cfg config, t *tally) (metrics, error){
	"paper-cold": runPaperCold,
	"dvad-sweep": runDvadSweep,
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: paper-cold or dvad-sweep")
		seed    = flag.Int64("seed", 1, "seed for the workload's generated inputs")
		seconds = flag.Int("seconds", 10, "how long one run measures")
		traced  = flag.Int("trace", 0, "1 runs the traced, per-layer run instead of the end-to-end one")
		work    = flag.String("work", ".bench_build/perfbench/work", "scratch directory for caches and span files")
		child   = flag.String("child", "", "internal: run one pass (paper or sweep) and report it as JSON")
		dir     = flag.String("cache-dir", "", "internal: a paper pass's cache directory")
		dirs    = flag.String("dirs", "", "internal: a sweep pass's worker cache directories, comma-separated")
		ref     = flag.String("ref", "", "internal: a sweep pass's reference digests")
		spans   = flag.String("spans", "", "internal: where a pass writes its spans")
	)
	flag.Parse()
	if *child != "" {
		var err error
		switch *child {
		case "paper":
			err = childPaperPass(*dir, *spans)
		case "sweep":
			err = childSweepPass(*seed, strings.Split(*dirs, ","), *ref, *spans)
		default:
			err = fmt.Errorf("unknown pass %q", *child)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench %s pass: %v\n", *child, err)
			os.Exit(1)
		}
		return
	}
	if err := run(*wl, *seed, *seconds, *traced, *work); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(wl string, seed int64, seconds, traced int, work string) error {
	if _, ok := workloads[wl]; !ok {
		return fmt.Errorf("unknown workload %q (want %s)", wl, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 || (traced != 0 && traced != 1) {
		return errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	work, err = os.MkdirTemp(work, wl+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg := config{workload: wl, seed: seed, seconds: time.Duration(seconds) * time.Second,
		trace: traced == 1, work: work, self: self}

	fmt.Println(hostFacts())
	if cfg.workload != "dvad-sweep" {
		fmt.Println("inputs: the 15 paper experiments at scale 1.0 are fixed; --seed is not used")
	}
	var t tally
	var m metrics
	if cfg.trace {
		m, err = runTraced(cfg, &t)
	} else {
		m, err = workloads[wl](cfg, &t)
	}
	if err != nil {
		return err
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer()
	}
	for _, sp := range want {
		if err := checkName(sp.name, sp.unit); err != nil {
			return err
		}
		got, ok := m[sp.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", sp.name)
		}
		if got.Unit != sp.unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", sp.name, got.Unit, sp.unit)
		}
	}
	for _, n := range t.notes {
		fmt.Fprintln(os.Stderr, "FAILED:", n)
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{t.failed == 0 && t.attempted > 0, t.attempted, t.failed, m})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// hostFacts names what a result was measured on: CPU count, GOMAXPROCS, Go
// version and the PGO profile the binary was built with.
func hostFacts() string {
	pgo := "none"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-pgo" && s.Value != "" {
				pgo = s.Value
				if wd, err := os.Getwd(); err == nil {
					if rel, err := filepath.Rel(wd, s.Value); err == nil {
						pgo = rel
					}
				}
			}
		}
	}
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d go=%s pgo=%s os=%s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), pgo, runtime.GOOS, runtime.GOARCH)
}
