package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"decvec/internal/experiments"
	"decvec/internal/sim"
	"decvec/internal/simcache"
	"decvec/internal/sweep"
)

// A BYP grid point is DVA with the bypass unit; the reply must still label
// it BYP, not the DVA it runs as.
func TestSweepGridLabelsBYP(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Programs: []string{"BDNA"}, Archs: []string{"DVA", "BYP"}, Latencies: []int64{30},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %s: %s", resp.Status, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 2 || sr.Points[0].Arch != "DVA" || sr.Points[1].Arch != "BYP" {
		t.Errorf("points = %+v, want archs DVA then BYP", sr.Points)
	}
}

// REF never reads the bypass bit, so REF with and without it is one run:
// one simulation and one disk entry.
func TestREFBypassIsOneRun(t *testing.T) {
	store, err := simcache.Open(t.TempDir(), simcache.Options{MaxBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := testServer(t, Config{Store: store})
	for _, bypass := range []bool{false, true} {
		if resp, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
			Program: "BDNA", Arch: "REF", Latency: 30, Bypass: bypass,
		}); resp.StatusCode != http.StatusOK {
			t.Fatalf("REF bypass=%v: %s: %s", bypass, resp.Status, body)
		}
	}
	if got := srv.Suite().Simulations(); got != 1 {
		t.Errorf("Simulations() = %d, want 1", got)
	}
	if got := store.Stats().Writes; got != 1 {
		t.Errorf("disk writes = %d, want 1", got)
	}
}

// Every spelling of one run must reach the same Job.Key through every dvad
// entry path — simulate JSON, sweep cells, grid mode — and through
// sweep.NewPlan, which dvasweep and grid mode share; an unknown
// architecture must get ParseArch's error on each.
func TestArchSpellingMatrix(t *testing.T) {
	srv, _ := testServer(t, Config{})
	const fp = "mh1:matrix"
	var th [32]byte
	cfg := sim.DefaultConfig(50)
	byp := cfg
	byp.Bypass = true
	want := map[string]simcache.Key{
		"REF": experiments.Job{Arch: experiments.REF, Cfg: cfg}.Key(fp, th),
		"DVA": experiments.Job{Arch: experiments.DVA, Cfg: cfg}.Key(fp, th),
		"BYP": experiments.Job{Arch: experiments.DVA, Cfg: byp}.Key(fp, th),
	}
	spellings := []struct {
		arch   string
		bypass bool // the simulate body's bypass field; the other paths have none
		class  string
	}{
		{"REF", false, "REF"}, {"ref", false, "REF"}, {"REF", true, "REF"},
		{"Dva", false, "DVA"}, {"DVA", false, "DVA"},
		{"BYP", false, "BYP"}, {"byp", false, "BYP"}, {"Byp", false, "BYP"},
		{"DVA", true, "BYP"},
	}

	paths := map[string]func(arch string, bypass bool) (experiments.Job, error){
		"simulate JSON": func(arch string, bypass bool) (experiments.Job, error) {
			body, _ := json.Marshal(map[string]any{"program": "BDNA", "arch": arch, "latency": 50, "bypass": bypass})
			var req SimulateRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return experiments.Job{}, err
			}
			return req.job()
		},
		"sweep cells": func(arch string, _ bool) (experiments.Job, error) {
			jobs, err := srv.sweepJobs(&SweepRequest{Cells: []SweepCell{{Program: "BDNA", Arch: arch, Latency: 50}}})
			if err != nil {
				return experiments.Job{}, err
			}
			return jobs[0], nil
		},
		"grid mode": func(arch string, _ bool) (experiments.Job, error) {
			jobs, err := srv.sweepJobs(&SweepRequest{Programs: []string{"BDNA"}, Archs: []string{arch}, Latencies: []int64{50}})
			if err != nil {
				return experiments.Job{}, err
			}
			return jobs[0], nil
		},
		"sweep.NewPlan": func(arch string, _ bool) (experiments.Job, error) {
			p, err := sweep.NewPlan(sweep.GridSpec{Programs: []string{"BDNA"}, Archs: []string{arch}, Latencies: []int64{50}})
			if err != nil {
				return experiments.Job{}, err
			}
			return p.Cell(0).Job, nil
		},
	}
	var probe experiments.Job
	unknown := probe.ParseArch("NOPE").Error()
	for name, parse := range paths {
		for _, sp := range spellings {
			if sp.bypass && name != "simulate JSON" {
				continue
			}
			j, err := parse(sp.arch, sp.bypass)
			if err != nil {
				t.Errorf("%s: %s bypass=%v: %v", name, sp.arch, sp.bypass, err)
				continue
			}
			if got := j.Key(fp, th); got != want[sp.class] {
				t.Errorf("%s: %s bypass=%v keys as %s…, want the %s key", name, sp.arch, sp.bypass, got[:12], sp.class)
			}
			if j.Label() != sp.class {
				t.Errorf("%s: %s bypass=%v labels as %s, want %s", name, sp.arch, sp.bypass, j.Label(), sp.class)
			}
		}
		if _, err := parse("NOPE", false); err == nil || !strings.Contains(err.Error(), unknown) {
			t.Errorf("%s: unknown arch error %v, want one carrying %q", name, err, unknown)
		}
	}
}
