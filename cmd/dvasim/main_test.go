package main

import (
	"strings"
	"testing"

	"decvec"
)

// dvasim's flags must parse every spelling of one run into the job every
// other entry path builds for it, and reject an unknown architecture with
// the same error they do.
func TestJobOfArchSpellings(t *testing.T) {
	const fp = "mh1:dvasim"
	var th [32]byte
	key := func(arch string) string {
		j, err := jobOf(arch, 50, 256, 16, 16, 0)
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		return string(j.Key(fp, th))
	}
	byp := decvec.DefaultConfig(50)
	byp.Bypass = true
	var dvaByp decvec.Job
	dvaByp.Cfg = byp
	if err := dvaByp.ParseArch("DVA"); err != nil {
		t.Fatal(err)
	}
	for class, spellings := range map[string][]string{
		"REF": {"REF", "ref"},
		"DVA": {"Dva", "DVA"},
		"BYP": {"BYP", "byp", "Byp"},
	} {
		want := key(class)
		for _, sp := range spellings {
			if got := key(sp); got != want {
				t.Errorf("-arch %s keys as %s…, want the %s key %s…", sp, got[:12], class, want[:12])
			}
		}
	}
	if got, want := key("BYP"), string(dvaByp.Key(fp, th)); got != want {
		t.Errorf("-arch BYP keys as %s…, want the DVA+bypass key %s…", got[:12], want[:12])
	}

	var probe decvec.Job
	unknown := probe.ParseArch("NOPE").Error()
	if _, err := jobOf("NOPE", 50, 256, 16, 16, 0); err == nil || !strings.Contains(err.Error(), unknown) {
		t.Errorf("unknown arch error %v, want one carrying %q", err, unknown)
	}
}
