package decvec_test

import (
	"strings"
	"testing"

	"decvec"
	"decvec/internal/experiments"
	"decvec/internal/simcache"
)

// Every spelling of one run must reach the same Job.Key through the
// facade's RunSourceCached — one disk entry per run, whatever the spelling —
// and the same result through RunSource; an unknown architecture must get
// ParseArch's error on both.
func TestFacadeArchSpellings(t *testing.T) {
	w, err := decvec.LoadWorkload("BDNA")
	if err != nil {
		t.Fatal(err)
	}
	src := w.Trace(0.05)
	th, err := simcache.TraceHash(src)
	if err != nil {
		t.Fatal(err)
	}
	store, err := decvec.OpenCache(t.TempDir(), decvec.CacheOptions{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := decvec.DefaultConfig(30)
	byp := cfg
	byp.Bypass = true
	classes := map[string]decvec.Job{
		"REF": {Arch: experiments.REF, Cfg: cfg},
		"DVA": {Arch: experiments.DVA, Cfg: cfg},
		"BYP": {Arch: experiments.DVA, Cfg: byp},
	}
	spellings := []struct {
		arch   string
		bypass bool
		class  string
	}{
		{"REF", false, "REF"}, {"ref", false, "REF"}, {"REF", true, "REF"},
		{"Dva", false, "DVA"}, {"DVA", false, "DVA"},
		{"BYP", false, "BYP"}, {"byp", false, "BYP"}, {"Byp", false, "BYP"},
		{"DVA", true, "BYP"},
	}
	cycles := make(map[string]int64)
	for _, sp := range spellings {
		c := cfg
		c.Bypass = sp.bypass
		plain, err := decvec.RunSource(src, sp.arch, c)
		if err != nil {
			t.Fatalf("RunSource %s bypass=%v: %v", sp.arch, sp.bypass, err)
		}
		cached, err := decvec.RunSourceCached(store, src, sp.arch, c, 0)
		if err != nil {
			t.Fatalf("RunSourceCached %s bypass=%v: %v", sp.arch, sp.bypass, err)
		}
		if prev, ok := cycles[sp.class]; ok && prev != plain.Cycles {
			t.Errorf("RunSource %s bypass=%v: %d cycles, want the %s run's %d", sp.arch, sp.bypass, plain.Cycles, sp.class, prev)
		}
		cycles[sp.class] = plain.Cycles
		if cached.Cycles != plain.Cycles {
			t.Errorf("%s bypass=%v: cached %d cycles, uncached %d", sp.arch, sp.bypass, cached.Cycles, plain.Cycles)
		}
	}
	if got := store.Stats().Writes; got != int64(len(classes)) {
		t.Errorf("disk writes = %d, want %d (one per distinct run)", got, len(classes))
	}
	for name, j := range classes {
		if _, ok := store.Get(j.Key(decvec.ModelFingerprint, th)); !ok {
			t.Errorf("no disk entry under the %s job's key", name)
		}
	}

	var probe decvec.Job
	unknown := probe.ParseArch("NOPE").Error()
	if _, err := decvec.RunSource(src, "NOPE", cfg); err == nil || !strings.Contains(err.Error(), unknown) {
		t.Errorf("RunSource unknown arch error %v, want one carrying %q", err, unknown)
	}
	if _, err := decvec.RunSourceCached(store, src, "NOPE", cfg, 0); err == nil || !strings.Contains(err.Error(), unknown) {
		t.Errorf("RunSourceCached unknown arch error %v, want one carrying %q", err, unknown)
	}
}
