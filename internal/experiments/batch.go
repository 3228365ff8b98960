package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"decvec/internal/dva"
	"decvec/internal/ooo"
	"decvec/internal/ref"
	"decvec/internal/sim"
	"decvec/internal/trace"
	"decvec/internal/workload"
)

// Pooled per-core run arenas, shared by every suite in the process. A
// Runner keeps one machine's worth of queues, scoreboards and scratch alive
// across runs and resets it in place (the Reset contract in
// internal/sim/arena.go), so a sweep's ten-thousandth simulation allocates
// exactly as much as its second: nothing. The pools are process-global
// because runners carry no cross-run state — every run re-seeds the machine
// from its config alone.
var (
	refRunners sim.RunPool[*ref.Runner]
	dvaRunners sim.RunPool[*dva.Runner]
	oooRunners sim.RunPool[*ooo.Runner]
)

func getRefRunner() *ref.Runner {
	if r, ok := refRunners.Get(); ok {
		return r
	}
	return ref.NewRunner()
}

func getDVARunner() *dva.Runner {
	if r, ok := dvaRunners.Get(); ok {
		return r
	}
	return dva.NewRunner()
}

func getOOORunner() *ooo.Runner {
	if r, ok := oooRunners.Get(); ok {
		return r
	}
	return ooo.NewRunner()
}

// simulateJob performs one uncached simulator invocation on a pooled
// machine. This is the batch hot loop: everything per run up to the core's
// own (hot-path-gated) stepping must stay allocation-free, so the function
// sits under the hotalloc gate. A runner is returned to its pool even when
// the run fails — reset restores it either way.
// declint:hotpath
func simulateJob(tr trace.Source, j Job) (*sim.Result, error) {
	switch j.Arch {
	case REF:
		rn := getRefRunner()
		r, err := rn.Run(tr, j.Cfg)
		refRunners.Put(rn)
		return r, err
	case DVA:
		rn := getDVARunner()
		r, err := rn.Run(tr, j.Cfg)
		dvaRunners.Put(rn)
		return r, err
	case OOO:
		rn := getOOORunner()
		r, err := rn.Run(tr, ooo.Config{Config: j.Cfg, Window: j.Window, PhysRegs: j.PhysRegs})
		oooRunners.Put(rn)
		return r, err
	default: // declint:nonexhaustive — a value no constant names
		return nil, errUnknownArch
	}
}

// RunBatch steps many independent jobs through the pooled machines and
// returns the results in job order. The batch is staged for throughput:
//
//   - cold: every distinct workload trace is materialized once, across the
//     CPUs;
//   - hot: duplicate jobs are collapsed, grouped by trace so consecutive
//     runs on a worker replay an instruction slab that is already
//     cache-hot, ordered longest-expected-first, and drained by a worker
//     pool in which every simulation reuses a pooled machine (through Run's
//     singleflight and disk tiers, so a batch shares results with — and
//     publishes results to — every other caller).
//
// Errors do not mask each other: all cells run, the joined aggregate is
// returned, and the cells that did succeed come back alongside it — a
// partial batch returns every completed result with nil holes at the failed
// positions. Cancellation skips cells not yet started.
func (s *Suite) RunBatch(ctx context.Context, jobs []Job) ([]*sim.Result, error) {
	if len(jobs) == 0 {
		return nil, nil
	}

	// Cold phase: materialize every distinct trace in parallel, so no hot
	// worker ever stalls generating instructions. Programs are deduped by
	// name — which is also what the suite and the disk cache key on — so
	// two distinct definitions sharing a name would silently answer one
	// cell with the other's trace. Refuse the whole batch instead.
	progs := make(map[string]*workload.Program, 8)
	mats := make([]func() error, 0, 8)
	for _, j := range jobs {
		if j.Program == nil {
			continue // uploaded traces arrive materialized
		}
		if prev, ok := progs[j.Program.Name]; ok {
			if prev != j.Program {
				return nil, fmt.Errorf("experiments: batch contains two distinct programs named %q; results would be keyed interchangeably", j.Program.Name)
			}
			continue
		}
		progs[j.Program.Name] = j.Program
		p := j.Program
		mats = append(mats, func() error {
			p.CachedTrace(s.Scale)
			return nil
		})
	}
	if err := parallelCtx(ctx, mats); err != nil {
		return nil, err
	}

	// Collapse duplicate cells; remember every distinct one once. A trace
	// is identified by the trace half of the memo key.
	type cell struct {
		j    Job
		cost int64
	}
	traceOf := func(k memoKey) memoKey { return memoKey{program: k.program, hash: k.hash} }
	keys := make([]memoKey, len(jobs))
	var keyErrs []error
	cells := make(map[memoKey]cell, len(jobs))
	order := make([]memoKey, 0, len(jobs))
	traceCost := make(map[memoKey]int64, len(progs))
	for i := range jobs {
		j, k, err := s.memoKey(jobs[i])
		if err != nil {
			keyErrs = append(keyErrs, err)
			continue
		}
		keys[i] = k
		if _, ok := cells[k]; ok {
			continue
		}
		c := cell{j: j, cost: int64(j.source(s.Scale).Len()) * j.Cfg.MemLatency}
		cells[k] = c
		order = append(order, k)
		traceCost[traceOf(k)] += c.cost
	}

	// Batched interleave: all of one trace's cells run back to back (its
	// instruction slab stays hot in cache), heaviest trace first, and within
	// a trace heaviest cell first, so the long simulations start immediately
	// and short ones fill the remaining worker capacity.
	sort.SliceStable(order, func(i, j int) bool {
		a, b := traceOf(order[i]), traceOf(order[j])
		if a != b {
			ca, cb := traceCost[a], traceCost[b]
			if ca != cb {
				return ca > cb
			}
			if a.program != b.program {
				return a.program < b.program
			}
			return string(a.hash[:]) < string(b.hash[:])
		}
		return cells[order[i]].cost > cells[order[j]].cost
	})

	// Hot phase: drain the cells across the CPUs, each worker recording its
	// own cell's outcome in place (distinct slots, so no lock is needed).
	// Run supplies the singleflight and cache tiers; the simulation itself
	// lands on a pooled machine via simulateJob. parallelCtx runs every cell
	// and joins every error — one failed cell must neither hide another's
	// failure nor discard the cells that succeeded.
	got := make([]*sim.Result, len(order))
	fns := make([]func() error, len(order))
	for i, k := range order {
		c := cells[k]
		fns[i] = func() error {
			r, err := s.Run(ctx, c.j)
			got[i] = r
			return err
		}
	}
	hotErr := parallelCtx(ctx, fns)

	// Collect in job order from the recorded outcomes — never by re-running
	// a cell, which for a failed cell would mean a second simulation whose
	// error masks the first. Failed cells leave nil holes; the joined
	// aggregate carries every cause.
	byKey := make(map[memoKey]*sim.Result, len(order))
	for i, k := range order {
		byKey[k] = got[i]
	}
	out := make([]*sim.Result, len(jobs))
	for i := range jobs {
		out[i] = byKey[keys[i]]
	}
	return out, errors.Join(append(keyErrs, hotErr)...)
}
