package experiments

import (
	"crypto/sha256"
	"errors"
	"testing"

	"decvec/internal/sim"
	"decvec/internal/workload"
)

// Job.Key must reproduce, byte for byte, the keys the per-site derivations
// it replaced wrote — otherwise every warm disk cache and every dvad
// worker's shard would go cold. The hex values were computed from the
// simcache.DeriveKey arguments those sites passed for the same jobs.
func TestJobKeyPinned(t *testing.T) {
	const fp = "mh1:pinned"
	workloadTrace := sha256.Sum256([]byte("workload trace"))
	uploadedTrace := sha256.Sum256([]byte("uploaded trace"))
	p := workload.Simulated()[0]
	cfg := sim.DefaultConfig(50)
	byp := cfg
	byp.Bypass = true

	cases := []struct {
		name string
		job  Job
		th   [32]byte
		want string
	}{
		{"REF", Job{Program: p, Arch: REF, Cfg: cfg}, workloadTrace,
			"531754bbef1a694d918bb68155dd3a0347e6adf4897e2e8a39b967e0e0924a3d"},
		{"DVA", Job{Program: p, Arch: DVA, Cfg: cfg}, workloadTrace,
			"85849bde17ce92c332ed5fecbc64076e823637ae075aee4e9dc4539e9424a727"},
		{"BYP", Job{Program: p, Arch: DVA, Cfg: byp}, workloadTrace,
			"99095284b96fe88c604826b6c82d0d06b355332552be4f940c6986e1901b8aba"},
		{"OOO window 16", Job{Program: p, Arch: OOO, Cfg: cfg, Window: 16, PhysRegs: 64}, workloadTrace,
			"29ecd5e8001b92a7e86daadc736f3ed9dd1d3ddf4289ac14bb7dd4b10d83e9da"},
		{"uploaded DVA", Job{Trace: p.CachedTrace(0.05), Arch: DVA, Cfg: cfg}, uploadedTrace,
			"acf3f2a2baedef0f619ca85b48f83a329df9b6e61b0fb58c199325bc4ef458df"},
	}
	for _, c := range cases {
		if got := c.job.Key(fp, c.th); string(got) != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}

	// The one intended change: REF ignores the bypass bit, so REF+bypass is
	// plain REF.
	refByp := Job{Program: p, Arch: REF, Cfg: byp}
	if got := refByp.Key(fp, workloadTrace); string(got) != cases[0].want {
		t.Errorf("REF+bypass key %s, want the plain REF key", got)
	}
}

func TestParseArchSpellings(t *testing.T) {
	cases := []struct {
		name   string
		arch   Arch
		bypass bool
		label  string
	}{
		{"REF", REF, false, "REF"},
		{"ref", REF, false, "REF"},
		{"Dva", DVA, false, "DVA"},
		{"DVA", DVA, false, "DVA"},
		{"BYP", DVA, true, "BYP"},
		{"byp", DVA, true, "BYP"},
		{"Byp", DVA, true, "BYP"},
	}
	for _, c := range cases {
		var j Job
		if err := j.ParseArch(c.name); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if j.Arch != c.arch || j.Cfg.Bypass != c.bypass || j.Label() != c.label {
			t.Errorf("%s: arch %s bypass %v label %s, want %s %v %s",
				c.name, j.Arch, j.Cfg.Bypass, j.Label(), c.arch, c.bypass, c.label)
		}
	}
	for _, bad := range []string{"OOO", "VLIW", ""} {
		var j Job
		if err := j.ParseArch(bad); !errors.Is(err, errUnknownArch) {
			t.Errorf("ParseArch(%q) = %v, want errUnknownArch", bad, err)
		}
	}
}

// Canonical clears exactly what an architecture ignores, and the suite
// memo keys on the canonical job: REF with the bypass bit set is the same
// run as plain REF and costs no second simulation.
func TestSuiteRunCanonicalizesJobs(t *testing.T) {
	s := NewSuite(0.05)
	p := workload.Simulated()[0]
	cfg := sim.DefaultConfig(10)
	byp := cfg
	byp.Bypass = true

	a, err := s.run(p, REF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.run(p, REF, byp)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || s.Simulations() != 1 {
		t.Errorf("REF and REF+bypass: same result %v, %d simulations; want one shared run", a == b, s.Simulations())
	}
	if got := (Job{Arch: DVA, Cfg: byp}).Canonical(); !got.Cfg.Bypass {
		t.Error("Canonical cleared the bypass bit of a DVA job")
	}
	if got := (Job{Arch: DVA, Cfg: cfg, Window: 4, PhysRegs: 8}).Canonical(); got.Window != 0 || got.PhysRegs != 0 {
		t.Errorf("Canonical kept OOO sizes on a DVA job: %+v", got)
	}
}
