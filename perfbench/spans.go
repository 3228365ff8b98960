package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside it: the
// benchmark wraps each public call it makes. Spans of one request share
// Req; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Proc   string `json:"proc"`
	Start  int64  `json:"start"` // unix ns
	End    int64  `json:"end"`   // unix ns
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	proc string
	base int64 // span ids are base+n, so child processes never collide
	next atomic.Int64
	mu   sync.Mutex
	all  []span
}

func newRecorder(proc string, base int64) *recorder {
	return &recorder{proc: proc, base: base}
}

// id reserves a span id before the call it names, so children started
// during the call can point at it.
func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	return r.base + r.next.Add(1)
}

// add records a finished span under a reserved id.
func (r *recorder) add(id, parent, req int64, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.all = append(r.all, span{ID: id, Parent: parent, Req: req, Name: name, Proc: r.proc,
		Start: start.UnixNano(), End: end.UnixNano()})
	r.mu.Unlock()
}

// merge appends spans recorded elsewhere (a child process).
func (r *recorder) merge(spans []span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.all = append(r.all, spans...)
	r.mu.Unlock()
}

// spans returns a copy of everything recorded so far.
func (r *recorder) spans() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.all...)
}

// durations returns the durations of the named spans, in milliseconds.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// direct children cover (overlapping children count once).
func selfTime(parent span, spans []span) time.Duration {
	var iv [][2]int64
	for _, s := range spans {
		if s.Parent != parent.ID || s.ID == parent.ID {
			continue
		}
		a, b := max(s.Start, parent.Start), min(s.End, parent.End)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			covered += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - time.Duration(covered)
}

// writeTEF writes the spans as a Trace Event Format file (load it in
// chrome://tracing or Perfetto); ids, parents and request ids ride in args.
func writeTEF(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  string         `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var t0 int64
	for i, s := range spans {
		if i == 0 || s.Start < t0 {
			t0 = s.Start
		}
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{Name: s.Name, Ph: "X", Ts: float64(s.Start-t0) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: s.Proc, Tid: s.Req, Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req}}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"displayTimeUnit": "ms", "traceEvents": evs}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
