package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary, recorded from this
// package around a public call into the layer. Spans of one request share
// Req; Parent is the index of the span that caused this one, −1 for a root.
type span struct {
	Name    string `json:"name"`
	Req     int    `json:"req"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"` // since the tracer was created
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends. A
// disabled tracer records nothing and costs one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	req   int
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, t0: time.Now()}
	if on {
		t.spans = make([]span, 0, 1<<16)
	}
	return t
}

// request allocates the identifier the spans of one request share.
func (t *tracer) request() int {
	t.req++
	return t.req
}

// start opens a span and returns its index (−1 when tracing is off).
func (t *tracer) start(name string, req, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, StartNS: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.EndNS = int64(time.Since(t.t0))
	return time.Duration(s.EndNS - s.StartNS)
}

// child records an interval a layer timed itself (a Report.Timings phase)
// as a child of parent, laid out from offset inside the parent; it returns
// the offset at which the next child starts.
func (t *tracer) child(name string, parent int, offset, d time.Duration) time.Duration {
	if parent < 0 {
		return offset
	}
	p := t.spans[parent]
	t.spans = append(t.spans, span{
		Name: name, Req: p.Req, Parent: parent,
		StartNS: p.StartNS + int64(offset), EndNS: p.StartNS + int64(offset+d),
	})
	return offset + d
}

// durations returns the duration of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.EndNS-s.StartNS))
		}
	}
	return out
}

// selfTimes returns, per span with the given name, its duration minus the
// part of it its direct children cover.
func (t *tracer) selfTimes(name string) []time.Duration {
	covered := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNS - s.StartNS
		}
	}
	var out []time.Duration
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.EndNS-s.StartNS-covered[i]))
		}
	}
	return out
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string, env environment) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Env   environment `json:"env"`
		Spans []span      `json:"spans"`
	}{env, t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
