package experiments

import (
	"errors"
	"fmt"
	"strings"

	"decvec/internal/sim"
	"decvec/internal/simcache"
	"decvec/internal/trace"
	"decvec/internal/workload"
)

// Arch selects a simulator.
type Arch uint8

// Architectures. BYP is not one of them: it is DVA with the §7 bypass unit
// on (Cfg.Bypass), which ParseArch maps it to and Label names it back as.
const (
	REF Arch = iota // the reference (coupled) vector architecture
	DVA             // the decoupled vector architecture
	OOO             // the out-of-order, register-renaming extension (§8)
)

// String returns the architecture's name as it appears in cache keys.
func (a Arch) String() string {
	switch a {
	case REF:
		return "REF"
	case DVA:
		return "DVA"
	case OOO:
		return "OOO"
	default: // declint:nonexhaustive — a value no constant names
		return fmt.Sprintf("Arch(%d)", uint8(a))
	}
}

// errUnknownArch is wrapped by every unknown-architecture error, whichever
// entry path (facade, CLI, dvad, sweep plan) the name came in through.
var errUnknownArch = errors.New("unknown architecture")

// Job is the identity of one simulation — which trace, which machine, which
// configuration — from the CLI and the dvad wire down to the suite memo, the
// disk cache and sweep sharding. Every boundary parses its input into a Job
// once; everything below consumes it, so no two layers can disagree about
// what a run is.
type Job struct {
	// Program is the workload to simulate at the suite's scale; nil when
	// Trace is set.
	Program *workload.Program
	// Trace is an uploaded, already materialized trace; used when Program
	// is nil. Such runs are keyed by trace content, so identical uploads
	// share one simulation and one cache entry.
	Trace *trace.Slice
	Arch  Arch
	Cfg   sim.Config
	// Window and PhysRegs size the OOO issue window and physical vector
	// register pool; the other architectures ignore them.
	Window, PhysRegs int
}

// ParseArch sets the job's architecture from its name, case-insensitively:
// REF, DVA, or BYP — DVA with the §7 bypass unit, so BYP also sets
// Cfg.Bypass. This is the one place that mapping lives. OOO is not
// accepted: its window parameters have no name to parse, so OOO jobs are
// built directly.
func (j *Job) ParseArch(name string) error {
	switch strings.ToUpper(name) {
	case "REF":
		j.Arch = REF
	case "DVA":
		j.Arch = DVA
	case "BYP":
		j.Arch = DVA
		j.Cfg.Bypass = true
	default:
		return fmt.Errorf("%w %q (want REF, DVA or BYP)", errUnknownArch, name)
	}
	return nil
}

// Canonical returns the job with every field its architecture ignores
// cleared: the bypass bit off REF and OOO, the OOO sizes off REF and DVA.
// Equal canonical jobs are the same run, so they share one memo entry, one
// in-flight simulation and one disk entry.
func (j Job) Canonical() Job {
	if j.Arch != DVA {
		j.Cfg.Bypass = false
	}
	if j.Arch != OOO {
		j.Window, j.PhysRegs = 0, 0
	}
	return j
}

// Label returns the architecture as the paper names it: BYP for DVA with
// the bypass unit, otherwise the Arch itself.
func (j Job) Label() string {
	if j.Arch == DVA && j.Cfg.Bypass {
		return "BYP"
	}
	return j.Arch.String()
}

// Key returns the job's content-addressed cache key under the given model
// fingerprint and trace content hash. It is the only key derivation outside
// simcache: the suite's disk tier stores results under it, and the sweep
// coordinator shards cells by its prefix, so a cell always routes to the
// worker whose disk holds it.
func (j Job) Key(fingerprint string, traceHash [32]byte) simcache.Key {
	j = j.Canonical()
	extra := ""
	if j.Arch == OOO {
		extra = fmt.Sprintf("window=%d physregs=%d", j.Window, j.PhysRegs)
	}
	return simcache.DeriveKey(fingerprint, traceHash, j.Arch.String(), j.Cfg, extra)
}

// name identifies the job's trace in diagnostics.
func (j Job) name() string {
	if j.Program != nil {
		return j.Program.Name
	}
	return j.Trace.Name()
}

// source returns the trace the job simulates at the given workload scale.
func (j Job) source(scale float64) *trace.Slice {
	if j.Program != nil {
		return j.Program.CachedTrace(scale)
	}
	return j.Trace
}
