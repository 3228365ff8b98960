package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"time"

	"decvec/internal/dva"
	"decvec/internal/ideal"
	"decvec/internal/ooo"
	"decvec/internal/ref"
	"decvec/internal/sim"
	"decvec/internal/simcache"
	"decvec/internal/trace"
	"decvec/internal/workload"
)

// The layer probes time each layer's public functions on fixed inputs —
// the six simulated programs — outside any workload, repeating each
// measurement probeReps times and reporting the median repetition.
const (
	probeReps    = 5
	probeLatency = 50
)

// timeReps runs f probeReps times and returns the median duration.
func timeReps(f func() error) (time.Duration, error) {
	var ds []float64
	for r := 0; r < probeReps; r++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(median(ds)), nil
}

// core is one simulator core as the probe drives it.
type core struct {
	name string
	run  func(*trace.Slice) (*sim.Result, error)
}

func probeCores() []core {
	cfg := sim.DefaultConfig(probeLatency)
	byp := cfg
	byp.Bypass = true
	dvaR, bypR, oooR := dva.NewRunner(), dva.NewRunner(), ooo.NewRunner()
	return []core{
		{"ref", func(t *trace.Slice) (*sim.Result, error) { return ref.Run(t, cfg) }},
		{"dva", func(t *trace.Slice) (*sim.Result, error) { return dvaR.Run(t, cfg) }},
		{"byp", func(t *trace.Slice) (*sim.Result, error) { return bypR.Run(t, byp) }},
		{"ooo", func(t *trace.Slice) (*sim.Result, error) { return oooR.Run(t, ooo.DefaultConfig(probeLatency)) }},
	}
}

// runProbes measures trace generation and hashing, the four cores and the
// ideal bound, the result codec and the disk cache. Simulated counts are
// exact: a repetition that disagrees with the first is a failed operation.
func runProbes(cfg config, t *tally, m metrics) error {
	progs := workload.Simulated()
	var traces []*trace.Slice
	gen, err := timeReps(func() error {
		traces = traces[:0]
		for _, p := range progs {
			traces = append(traces, p.Trace(paperScale))
		}
		return nil
	})
	if err != nil {
		return err
	}
	var insts int64
	for _, tr := range traces {
		insts += int64(tr.Len())
	}
	hashes := make([][32]byte, len(traces))
	hash, err := timeReps(func() error {
		for i, tr := range traces {
			h, err := trace.Hash(tr)
			if err != nil {
				return err
			}
			hashes[i] = h
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("workload.trace_ms", "ms", ms(gen))
	m.set("workload.insts", "count", float64(insts))
	m.set("trace.hash_ms", "ms", ms(hash))

	fmt.Printf("%-6s %12s %14s %10s   (core probe: %d programs at L=%d)\n", "core", "ns/inst", "simcycles", "insts", len(traces), probeLatency)
	var dvaResults []*sim.Result
	for _, c := range probeCores() {
		var cycles int64 = -1
		var results []*sim.Result
		d, err := timeReps(func() error {
			var sum int64
			results = results[:0]
			for _, tr := range traces {
				res, err := c.run(tr)
				if err != nil {
					return fmt.Errorf("%s probe: %w", c.name, err)
				}
				sum += res.Cycles
				results = append(results, res)
			}
			t.op(cycles < 0 || sum == cycles, "%s probe: %d simulated cycles, an earlier repetition %d", c.name, sum, cycles)
			cycles = sum
			return nil
		})
		if err != nil {
			return err
		}
		nsPerInst := float64(d) / float64(insts)
		m.set(c.name+".ns_per_inst", "ns", nsPerInst)
		m.set(c.name+".simcycles", "count", float64(cycles))
		fmt.Printf("%-6s %12.2f %14d %10d\n", c.name, nsPerInst, cycles, insts)
		if c.name == "dva" {
			m.set("dva.ns_per_simcycle", "ns", float64(d)/float64(cycles))
			dvaResults = results
		}
	}

	var idealCycles int64
	id, err := timeReps(func() error {
		idealCycles = 0
		for _, tr := range traces {
			idealCycles += ideal.Compute(tr).Cycles
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("ideal.ms", "ms", ms(id))
	m.set("ideal.simcycles", "count", float64(idealCycles))
	fmt.Printf("%-6s %12s %14d %10d\n", "ideal", "-", idealCycles, insts)

	// A DVA run at sweep scale: what a sweep miss pays, mostly per-run
	// fixed cost rather than per-cycle stepping.
	var small []*trace.Slice
	for _, p := range progs {
		small = append(small, p.CachedTrace(sweepScale))
	}
	runner, smallCfg := dva.NewRunner(), sim.DefaultConfig(probeLatency)
	sm, err := timeReps(func() error {
		for i := 0; i < 10; i++ {
			for _, tr := range small {
				if _, err := runner.Run(tr, smallCfg); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("dva.small_run_us", "us", us(sm)/float64(10*len(small)))

	return probeStorage(cfg, t, m, dvaResults, hashes)
}

// storageRounds is how many times each storage repetition goes over the
// six results: a single call takes microseconds.
const storageRounds = 20

// probeStorage times the result codec and a scratch disk cache on the DVA
// probe results, checking each round trip.
func probeStorage(cfg config, t *tally, m metrics, results []*sim.Result, hashes [][32]byte) error {
	n := float64(storageRounds * len(results))
	rounds := func(f func() error) func() error {
		return func() error {
			for r := 0; r < storageRounds; r++ {
				if err := f(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	enc := make([][]byte, len(results))
	d, err := timeReps(rounds(func() error {
		for i, r := range results {
			var buf bytes.Buffer
			if err := sim.EncodeResult(&buf, r); err != nil {
				return err
			}
			enc[i] = buf.Bytes()
		}
		return nil
	}))
	if err != nil {
		return err
	}
	m.set("codec.encode_us", "us", us(d)/n)
	decoded := make([]*sim.Result, len(results))
	d, err = timeReps(rounds(func() error {
		for i, b := range enc {
			r, err := sim.DecodeResult(bytes.NewReader(b))
			if err != nil {
				return err
			}
			decoded[i] = r
		}
		return nil
	}))
	if err != nil {
		return err
	}
	m.set("codec.decode_us", "us", us(d)/n)
	for i, r := range decoded {
		t.op(digest(r) == sha256.Sum256(enc[i]), "codec probe: result %d does not survive a round trip", i)
	}

	dir, err := os.MkdirTemp(cfg.work, "probe-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := simcache.Open(dir, simcache.Options{MaxBytes: -1})
	if err != nil {
		return err
	}
	simCfg := sim.DefaultConfig(probeLatency)
	keys := make([]simcache.Key, len(results))
	for i := range results {
		keys[i] = store.Key(hashes[i], "DVA", simCfg, "")
	}
	d, err = timeReps(rounds(func() error {
		for i, r := range results {
			if err := store.Put(keys[i], r); err != nil {
				return err
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}
	m.set("simcache.put_us", "us", us(d)/n)
	var got []*sim.Result
	d, err = timeReps(rounds(func() error {
		got = got[:0]
		for _, k := range keys {
			r, _ := store.Get(k)
			got = append(got, r)
		}
		return nil
	}))
	if err != nil {
		return err
	}
	m.set("simcache.get_us", "us", us(d)/n)
	for i, r := range got {
		t.op(r != nil && digest(r) == sha256.Sum256(enc[i]), "simcache probe: Get of entry %d differs from what was put", i)
	}
	var raw [][]byte
	d, err = timeReps(rounds(func() error {
		raw = raw[:0]
		for _, k := range keys {
			_, b, _ := store.GetBytes(k)
			raw = append(raw, b)
		}
		return nil
	}))
	if err != nil {
		return err
	}
	m.set("simcache.getbytes_us", "us", us(d)/n)
	for i, b := range raw {
		t.op(bytes.Equal(b, enc[i]), "simcache probe: GetBytes of entry %d differs from the encoding", i)
	}
	return nil
}
