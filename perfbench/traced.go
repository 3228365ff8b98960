package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"decvec"
	"decvec/internal/sweep"
)

// runTraced is the per-layer run. It runs the layer probes, a traced cold
// and warm paper pass and a traced dvad-sweep pass — spans around every
// public call the benchmark makes — and then alternates untraced and
// traced passes of the named workload for the run's seconds, which gives
// trace_overhead_pct. Every pass is checked as in the end-to-end run. The
// spans are written as a Trace Event Format file beside the work directory.
func runTraced(cfg config, t *tally) (metrics, error) {
	m := metrics{}
	if err := runProbes(cfg, t, m); err != nil {
		return nil, err
	}
	rec := newRecorder("perfbench", 0)

	// Paper workloads: a traced cold pass fills a cache a traced warm pass
	// then reads.
	warmDir, err := os.MkdirTemp(cfg.work, "cache-")
	if err != nil {
		return nil, err
	}
	cold, err := runPass(cfg, warmDir, true)
	if err != nil {
		return nil, err
	}
	ref := cold.rep
	cold.check(t, ref, false, "traced cold pass")
	rec.merge(relabel(cold.spans, ".cold"))
	warm, err := runPass(cfg, warmDir, true)
	if err != nil {
		return nil, err
	}
	warm.check(t, ref, true, "traced warm pass")
	rec.merge(relabel(warm.spans, ".warm"))
	for label, r := range map[string]passReport{"cold": cold.rep, "warm": warm.rep} {
		m.set("experiments."+label+".sims", "count", float64(r.Sims))
		m.set("simcache."+label+".hits", "count", float64(r.Hits))
		m.set("simcache."+label+".misses", "count", float64(r.Misses))
		m.set("simcache."+label+".writes", "count", float64(r.Writes))
		m.set("simcache."+label+".corrupt", "count", float64(r.Corrupt))
	}

	// dvad-sweep: one set-up, then a traced pass.
	s, _, err := newSweepRun(cfg, 1)
	if err != nil {
		return nil, err
	}
	spec, _ := seededGrid(cfg.seed)
	plan, err := timeReps(func() error {
		p, err := sweep.NewPlan(spec)
		if err != nil {
			return err
		}
		for i := 0; i < p.Points(); i++ {
			_ = p.Cell(i)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.set("sweep.plan_us", "us", us(plan))
	sp, err := s.pass(t, true, "traced sweep pass")
	if err != nil {
		return nil, err
	}
	rec.merge(sp.spans)
	r := sp.rep
	m.set("experiments.sweep.sims", "count", float64(r.Sims))
	m.set("simcache.sweep.hits", "count", float64(r.Hits))
	m.set("simcache.sweep.misses", "count", float64(r.Misses))
	m.set("server.served", "count", float64(r.Served))
	m.set("server.overloaded", "count", float64(r.Overload))
	m.set("server.timeouts", "count", float64(r.Timeouts))
	m.set("sweep.retries", "count", float64(r.Retries))
	m.set("sweep.resharded", "count", float64(r.Reshard))
	m.set("sweep.rounds", "count", float64(r.Rounds))

	// Overhead: untraced and traced passes of the named workload, in
	// alternating order.
	onePass := func(traced bool, i int) (time.Duration, error) {
		what := fmt.Sprintf("overhead pass %d (traced %v)", i, traced)
		switch cfg.workload {
		case "dvad-sweep":
			p, err := s.pass(t, traced, what)
			rec.merge(p.spans)
			return p.wall(), err
		default:
			dir, err := os.MkdirTemp(cfg.work, "cache-")
			if err != nil {
				return 0, err
			}
			defer os.RemoveAll(dir)
			p, err := runPass(cfg, dir, traced)
			if err != nil {
				return 0, err
			}
			p.check(t, ref, false, what)
			rec.merge(relabel(p.spans, ".cold"))
			return p.wall, nil
		}
	}
	var plain, traced []float64
	for i, start := 0, time.Now(); i < 2 || time.Since(start) < cfg.seconds; i++ {
		for _, tr := range []bool{i%2 == 0, i%2 != 0} {
			d, err := onePass(tr, i)
			if err != nil {
				return nil, err
			}
			if tr {
				traced = append(traced, d.Seconds())
			} else {
				plain = append(plain, d.Seconds())
			}
		}
	}
	os.RemoveAll(warmDir)
	m.set("trace_overhead_pct", "%", (median(traced)/median(plain)-1)*100)
	fmt.Printf("overhead: %d untraced and %d traced %s passes, medians %.4f s and %.4f s\n",
		len(plain), len(traced), cfg.workload, median(plain), median(traced))

	if err := spanMetrics(rec.spans(), m); err != nil {
		return nil, err
	}
	out := filepath.Join(filepath.Dir(cfg.work), fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := writeTEF(out, rec.spans()); err != nil {
		return nil, err
	}
	fmt.Println("spans:", out)
	return m, nil
}

// relabel suffixes a paper pass's span names with the cache state it ran
// in ("exp.fig7" becomes "exp.fig7.cold").
func relabel(spans []span, suffix string) []span {
	for i := range spans {
		spans[i].Name += suffix
	}
	return spans
}

// spanMetrics derives the per-layer timings from the recorded spans.
func spanMetrics(spans []span, m metrics) error {
	for _, name := range decvec.ExperimentNames() {
		for _, label := range []string{"cold", "warm"} {
			d := durationsMs(spans, "exp."+name+"."+label)
			if len(d) == 0 {
				return fmt.Errorf("no spans for experiment %s (%s)", name, label)
			}
			m.set("exp."+name+"."+label+"_ms", "ms", median(d))
		}
	}
	var rtt, self []float64
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "http /v1/"):
			rtt = append(rtt, ms(s.dur()))
		case s.Name == "sweep.run":
			self = append(self, ms(selfTime(s, spans)))
		}
	}
	for _, pc := range []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"server.handler_ms_p50", durationsMs(spans, "server.handler"), 50},
		{"sweep.exec_ms_p50", durationsMs(spans, "sweep.exec"), 50},
		{"sweep.http_rtt_ms_p50", rtt, 50},
		{"sweep.http_rtt_ms_p90", rtt, 90},
	} {
		v, ok := percentile(pc.xs, pc.p)
		if !ok {
			return fmt.Errorf("%s: %d samples leave fewer than %d beyond the percentile", pc.name, len(pc.xs), minBeyond)
		}
		m.set(pc.name, "ms", v)
	}
	if len(self) == 0 {
		return fmt.Errorf("no sweep.run spans")
	}
	m.set("sweep.coord_self_ms", "ms", median(self))
	return nil
}
