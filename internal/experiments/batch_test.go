package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"decvec/internal/sim"
	"decvec/internal/workload"
)

// A batch with failing cells must return every completed result alongside
// the joined error — and the joined error must name every failure, not
// just whichever the collect loop met first. The old collect path re-ran
// cells and returned the first error bare, masking the rest and dropping
// the successes.
func TestRunBatchPartialFailure(t *testing.T) {
	s := NewSuite(0.05)
	p := workload.Simulated()[0]
	jobs := []Job{
		{Program: p, Arch: REF, Cfg: sim.DefaultConfig(1)},
		{Program: p, Arch: Arch(99), Cfg: sim.DefaultConfig(1)},
		{Program: p, Arch: DVA, Cfg: sim.DefaultConfig(1)},
		{Program: p, Arch: Arch(98), Cfg: sim.DefaultConfig(10)},
	}
	out, err := s.RunBatch(context.Background(), jobs)
	if err == nil {
		t.Fatal("RunBatch with unknown architectures returned nil error")
	}
	if !errors.Is(err, errUnknownArch) {
		t.Errorf("joined error does not wrap errUnknownArch: %v", err)
	}
	if len(out) != len(jobs) {
		t.Fatalf("partial results: got %d slots, want %d", len(out), len(jobs))
	}
	if out[0] == nil || out[2] == nil {
		t.Errorf("successful cells dropped from a partial batch: out[0]=%v out[2]=%v", out[0], out[2])
	}
	if out[1] != nil || out[3] != nil {
		t.Errorf("failed cells must be nil holes: out[1]=%v out[3]=%v", out[1], out[3])
	}
}

// Two distinct program definitions sharing a name would be keyed
// interchangeably by the suite and the disk cache; RunBatch must refuse
// the batch loudly instead of answering one cell with the other's trace.
func TestRunBatchProgramNameCollision(t *testing.T) {
	orig := workload.Simulated()[0]
	fake := &workload.Program{Name: orig.Name, Description: "impostor"}
	s := NewSuite(0.05)
	jobs := []Job{
		{Program: orig, Arch: REF, Cfg: sim.DefaultConfig(1)},
		{Program: fake, Arch: REF, Cfg: sim.DefaultConfig(1)},
	}
	out, err := s.RunBatch(context.Background(), jobs)
	if err == nil {
		t.Fatal("RunBatch accepted two distinct programs sharing a name")
	}
	if !strings.Contains(err.Error(), orig.Name) {
		t.Errorf("collision error does not name the program: %v", err)
	}
	if out != nil {
		t.Errorf("collision must fail the whole batch, got results %v", out)
	}

	// The same definition appearing twice is of course fine.
	jobs = []Job{
		{Program: orig, Arch: REF, Cfg: sim.DefaultConfig(1)},
		{Program: orig, Arch: REF, Cfg: sim.DefaultConfig(1)},
	}
	out, err = s.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatalf("duplicate jobs of one program: %v", err)
	}
	if out[0] == nil || out[0] != out[1] {
		t.Errorf("duplicate cells should collapse to one result: %p %p", out[0], out[1])
	}
}
