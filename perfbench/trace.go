package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// answer or request share Trace; Parent is 0 for a root. Measured holds
// durations the program reported itself (the solver's Stats.Time* stage
// totals, a response's elapsed_ns): they are attached to the span that
// made the call, as totals, because the program does not say when inside
// the span they happened.
type span struct {
	ID       int               `json:"id"`
	Parent   int               `json:"parent"`
	Trace    int               `json:"trace"`
	Name     string            `json:"name"`
	StartNS  int64             `json:"start_ns"`
	EndNS    int64             `json:"end_ns"`
	SelfNS   int64             `json:"self_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Measured map[string]int64  `json:"measured_ns,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	traces int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newTrace returns a fresh identifier shared by the spans of one answer.
func (t *tracer) newTrace() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.traces
}

// record adds a finished span covering [start, end] and returns its id.
func (t *tracer) record(trace, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds()})
	return id
}

func (t *tracer) attr(id int, k, v string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = map[string]string{}
	}
	s.Attrs[k] = v
}

func (t *tracer) measured(id int, k string, ns int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	if s.Measured == nil {
		s.Measured = map[string]int64{}
	}
	s.Measured[k] = ns
}

// durations returns the durations in milliseconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// childCoverage returns, for every span named parentName, the share of
// its duration that its children's spans cover.
func (t *tracer) childCoverage(parentName string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans)
	var out []float64
	for _, s := range t.spans {
		if s.Name == parentName && s.EndNS > s.StartNS {
			d := s.EndNS - s.StartNS
			out = append(out, float64(d-s.SelfNS)/float64(d))
		}
	}
	return out
}

// selfTimes sets each span's SelfNS: its duration minus the part of that
// interval its children cover (overlapping children counted once).
func selfTimes(spans []span) {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range spans {
		s := &spans[i]
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].StartNS < cs[b].StartNS })
		var covered, reach int64 = 0, s.StartNS
		for _, c := range cs {
			lo, hi := max(c.StartNS, reach), min(c.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.SelfNS = s.EndNS - s.StartNS - covered
	}
}

// notMeasured names the packages that sit on no measured path: the
// benchmark uses gen and baseline only to build inputs and reference
// answers before timing starts, and never reaches checkpoint, cluster or
// ecc.
var notMeasured = []string{"checkpoint", "cluster", "baseline", "ecc", "gen"}

// write stores the spans, with self times filled in, as one JSON file.
func (t *tracer) write(path string, head any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Run         any      `json:"run"`
		NotMeasured []string `json:"not_on_measured_path"`
		Spans       []span   `json:"spans"`
	}{head, notMeasured, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
