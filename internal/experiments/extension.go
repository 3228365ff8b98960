package experiments

import (
	"context"

	"decvec/internal/sim"
	"decvec/internal/workload"
)

// ExtensionOOORow is one (program, latency) comparison between the
// reference architecture, the decoupled architecture and out-of-order
// execution with register renaming at several window sizes.
type ExtensionOOORow struct {
	Name    string
	Latency int64
	Ref     int64
	Dva     int64
	// Ooo holds cycles per window size, aligned with ExtensionOOOWindows.
	Ooo []int64
}

// ExtensionOOOWindows are the issue-window sizes swept by the extension
// study.
var ExtensionOOOWindows = []int{4, 16, 64}

// ExtensionOOOResult is the §8 future-work study: decoupling versus
// out-of-order execution and register renaming.
type ExtensionOOOResult struct {
	Latencies []int64
	Windows   []int
	Rows      []ExtensionOOORow
}

// ExtensionOOO compares REF, DVA and OOO across latencies. The OOO machine
// shares the reference datapath (two FUs, one port, no load chaining) and
// issue bandwidth (one per cycle), differing only in its issue window and
// physical-register renaming — the cleanest head-to-head the paper's §8
// asks for.
func ExtensionOOO(ctx context.Context, s *Suite, lats []int64) (*ExtensionOOOResult, error) {
	if len(lats) == 0 {
		lats = []int64{1, 30, 100}
	}
	progs := workload.Simulated()
	// One batch covers the REF and DVA baselines and every OOO window, so
	// the OOO runs share the suite's pooled machines, memory and disk tiers
	// and trace-grouped scheduling with the rest.
	var runs []Job
	for _, l := range lats {
		cfg := sim.DefaultConfig(l)
		runs = append(runs, Job{Arch: REF, Cfg: cfg}, Job{Arch: DVA, Cfg: cfg})
		for _, w := range ExtensionOOOWindows {
			runs = append(runs, oooJob(l, w))
		}
	}
	if _, err := s.RunBatch(ctx, grid(progs, runs)); err != nil {
		return nil, err
	}
	res := &ExtensionOOOResult{Latencies: lats, Windows: ExtensionOOOWindows}
	for _, p := range progs {
		for _, l := range lats {
			rr, err := s.Run(ctx, Job{Program: p, Arch: REF, Cfg: sim.DefaultConfig(l)})
			if err != nil {
				return nil, err
			}
			rd, err := s.Run(ctx, Job{Program: p, Arch: DVA, Cfg: sim.DefaultConfig(l)})
			if err != nil {
				return nil, err
			}
			row := ExtensionOOORow{Name: p.Name, Latency: l, Ref: rr.Cycles, Dva: rd.Cycles}
			for _, w := range ExtensionOOOWindows {
				j := oooJob(l, w)
				j.Program = p
				ro, err := s.Run(ctx, j)
				if err != nil {
					return nil, err
				}
				row.Ooo = append(row.Ooo, ro.Cycles)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// oooJob is the OOO template of one (latency, window) cell of the study.
func oooJob(latency int64, window int) Job {
	return Job{Arch: OOO, Cfg: sim.DefaultConfig(latency), Window: window, PhysRegs: 4 * physFloor(window)}
}

// physFloor sizes the physical register pool relative to the window with a
// floor of the architectural count.
func physFloor(w int) int {
	if w < 8 {
		return 8
	}
	return w
}
