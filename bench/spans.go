package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval of the traced run. Start and End are
// nanoseconds since the tracer was created; Parent is the index of the
// enclosing span in the file (-1 for a root); Stmt numbers the statement the
// span belongs to. Replayed spans (see README, "Traced run") run after the
// statement they explain, so their interval lies outside their parent's:
// Parent then states which span's time they account for, not containment in
// time.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Stmt   int    `json:"stmt"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time (wire_short gives each connection its own).
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, stmt int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Stmt: stmt})
	return len(t.spans) - 1
}

// end closes the span begin returned and reports its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// derived records a span whose duration was computed, not observed (the
// PDT-merge share of a merged scan): it starts where its parent starts.
func (t *tracer) derived(name string, parent, stmt int, d time.Duration) {
	if d < 0 {
		d = 0
	}
	st := t.spans[parent].Start
	t.spans = append(t.spans, span{Name: name, Start: st, End: st + int64(d), Parent: parent, Stmt: stmt})
}

// selfTimes returns, per span, its duration minus the time its child spans
// cover. Children that overlap each other (parallel work) are counted once;
// the covered time is capped at the parent's duration.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		dur := s.End - s.Start
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		var covered, hi int64
		first := true
		for _, k := range ks {
			c := spans[k]
			if first || c.Start > hi {
				covered += c.End - c.Start
				hi = c.End
				first = false
			} else if c.End > hi {
				covered += c.End - hi
				hi = c.End
			}
		}
		if covered > dur {
			covered = dur
		}
		out[i] = dur - covered
	}
	return out
}

// selfByName sums self times per span name.
func selfByName(spans []span) map[string]int64 {
	out := map[string]int64{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += d
	}
	return out
}

// durByName sums durations per span name.
func durByName(spans []span) map[string]int64 {
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start
	}
	return out
}

func (t *tracer) writeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
