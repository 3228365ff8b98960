package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"decvec"
)

// paperScale is the trace scale of the paper passes: dvabench's default.
const paperScale = 1.0

// passReport is what one paper pass prints: the digest of every experiment
// report and the suite's counters.
type passReport struct {
	Exps    []expReport `json:"exps"`
	Sims    int64       `json:"sims"`
	Hits    int64       `json:"hits"`
	Misses  int64       `json:"misses"`
	Writes  int64       `json:"writes"`
	Corrupt int64       `json:"corrupt"`
}

type expReport struct {
	Name   string `json:"name"`
	Digest string `json:"digest"` // SHA-256 of the rendered report
	Err    string `json:"err,omitempty"`
}

// childPaperPass runs all paper experiments through the public facade on a
// fresh suite over the disk cache at dir, as one dvabench invocation does,
// and prints a passReport. With spansPath set it records one span per
// experiment and writes them there.
func childPaperPass(dir, spansPath string) error {
	if dir == "" {
		return fmt.Errorf("no -cache-dir")
	}
	var rec *recorder
	if spansPath != "" {
		rec = newRecorder(fmt.Sprintf("paper-pass-%d", os.Getpid()), int64(os.Getpid())<<32)
	}
	suite := decvec.NewSuite(paperScale)
	store, err := decvec.OpenCache(dir, decvec.CacheOptions{MaxBytes: -1})
	if err != nil {
		return err
	}
	suite.Disk = store
	ctx := context.Background()
	root := rec.id()
	passStart := time.Now()
	var out passReport
	for _, name := range decvec.ExperimentNames() {
		id := rec.id()
		start := time.Now()
		rep, err := decvec.RunExperimentCtx(ctx, suite, name)
		rec.add(id, root, 1, "exp."+name, start, time.Now())
		er := expReport{Name: name}
		if err != nil {
			er.Err = err.Error()
		} else {
			sum := sha256.Sum256([]byte(rep))
			er.Digest = hex.EncodeToString(sum[:])
		}
		out.Exps = append(out.Exps, er)
	}
	rec.add(root, 0, 1, "paper.pass", passStart, time.Now())
	st := suite.CacheStats()
	out.Sims, out.Hits, out.Misses, out.Writes, out.Corrupt = suite.Simulations(), st.Hits, st.Misses, st.Writes, st.Corrupt
	if err := writeSpans(spansPath, rec); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// pass is one paper pass as the parent saw it.
type pass struct {
	child
	rep passReport
}

// child is a pass process as the parent measured it from outside: wall
// clock around the process, CPU time and peak RSS from its rusage, and the
// spans it wrote when traced.
type child struct {
	wall, cpu time.Duration
	rssMB     float64
	spans     []span
}

// runChild runs this binary with args as one pass, decodes the JSON it
// prints into out and, when traced, reads back the spans it recorded.
func runChild(cfg config, args []string, traced bool, out any) (child, error) {
	spansPath := filepath.Join(cfg.work, fmt.Sprintf("spans-%d.json", time.Now().UnixNano()))
	if traced {
		args = append(args, "-spans", spansPath)
	}
	cmd := exec.Command(cfg.self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	start := time.Now()
	err := cmd.Run()
	c := child{wall: time.Since(start)}
	if err != nil {
		return c, err
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		c.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return c, fmt.Errorf("pass output: %w", err)
	}
	if traced {
		b, err := os.ReadFile(spansPath)
		if err != nil {
			return c, err
		}
		os.Remove(spansPath)
		if err := json.Unmarshal(b, &c.spans); err != nil {
			return c, fmt.Errorf("pass spans: %w", err)
		}
	}
	return c, nil
}

// writeSpans is the child side of runChild: it writes the recorded spans
// where the parent will look for them. A nil recorder writes nothing.
func writeSpans(path string, rec *recorder) error {
	if rec == nil {
		return nil
	}
	b, err := json.Marshal(rec.spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runPass runs one paper pass in a fresh process — trace memoization is
// per process, so only a new process starts, as dvabench does, with no
// traces.
func runPass(cfg config, dir string, traced bool) (pass, error) {
	var p pass
	c, err := runChild(cfg, []string{"-child", "paper", "-cache-dir", dir}, traced, &p.rep)
	if err != nil {
		return pass{}, fmt.Errorf("paper pass: %w", err)
	}
	p.child = c
	return p, nil
}

// check counts each experiment of a pass as one operation: it fails when it
// errored or its report differs from the reference pass. A warm pass must
// also answer everything from disk: any simulation or disk miss fails it.
func (p pass) check(t *tally, ref passReport, warm bool, what string) {
	for i, e := range p.rep.Exps {
		switch {
		case e.Err != "":
			t.op(false, "%s %s: %s", what, e.Name, e.Err)
		case i >= len(ref.Exps) || ref.Exps[i].Name != e.Name || ref.Exps[i].Digest != e.Digest:
			t.op(false, "%s %s: report differs from the reference pass", what, e.Name)
		default:
			t.op(true, "")
		}
	}
	if len(p.rep.Exps) != len(ref.Exps) {
		t.fail("%s ran %d experiments, the reference %d", what, len(p.rep.Exps), len(ref.Exps))
	}
	if warm && (p.rep.Sims != 0 || p.rep.Misses != 0) {
		t.fail("%s made %d simulations and %d disk misses; a warm pass must make none", what, p.rep.Sims, p.rep.Misses)
	}
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

// minPasses is the fewest measured passes a run makes, whatever --seconds.
const minPasses = 3

// runPaperCold times cold passes: each starts from an empty disk cache and
// a new process. Set-up is a warm-up cold pass (page cache, binary); the
// first one's reports are the reference every later pass must reproduce.
// The run ends with one warm pass over the last cold pass's cache, which
// must reproduce the same reports without simulating.
func runPaperCold(cfg config, t *tally) (metrics, error) {
	var ref passReport
	coldPass := func(what string) (pass, string, error) {
		dir, err := os.MkdirTemp(cfg.work, "cache-")
		if err != nil {
			return pass{}, "", err
		}
		p, err := runPass(cfg, dir, false)
		if err != nil {
			return pass{}, "", err
		}
		if ref.Exps == nil {
			ref = p.rep
		}
		p.check(t, ref, false, what)
		return p, dir, nil
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		start := time.Now()
		_, dir, err := coldPass(fmt.Sprintf("set-up pass %d", i))
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		os.RemoveAll(dir)
	}
	var passes []pass
	lastDir := ""
	for start := time.Now(); len(passes) < minPasses || time.Since(start) < cfg.seconds; {
		os.RemoveAll(lastDir)
		p, dir, err := coldPass(fmt.Sprintf("cold pass %d", len(passes)))
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		lastDir = dir
	}
	warm, err := runPass(cfg, lastDir, false)
	if err != nil {
		return nil, err
	}
	warm.check(t, ref, true, "warm check pass")
	os.RemoveAll(lastDir)
	return passMetrics(passes, setupS), nil
}

// passMetrics reports the median pass: wall time, CPU time and peak RSS.
func passMetrics(passes []pass, setupS []float64) metrics {
	var wall, cpu, rss []float64
	for _, p := range passes {
		wall = append(wall, p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		rss = append(rss, p.rssMB)
	}
	fmt.Printf("passes: %d, %d experiments each, wall %s\n", len(passes), len(decvec.ExperimentNames()), summary(wall))
	m := metrics{}
	m.set("setup_s", "s", median(setupS))
	m.set("wall_s", "s", median(wall))
	m.set("cpu_s", "s", median(cpu))
	m.set("peak_rss_mb", "MB", median(rss))
	return m
}
