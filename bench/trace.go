package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (nothing inside the program is instrumented). Times are
// nanoseconds since the tracer started; Parent is an index into the
// same span list, -1 at the top. Allocs is the process-wide heap-object
// count delta across the span, taken at the same boundary as the clock.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Parent   int    `json:"parent"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Allocs   uint64 `json:"allocs"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced pass: begin and end are no-ops, so workload code is written
// once and costs two nil checks per call site when tracing is off.
type tracer struct {
	workload string
	t0       time.Time
	ac       *allocCounter
	spans    []span
	open     []int // stack of open span indexes
	op       int   // the repetition, stamped on every span
}

func newTracer(workload string, op int) *tracer {
	return &tracer{workload: workload, op: op, t0: time.Now(), ac: newAllocCounter()}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Op: t.op,
		Parent: parent, Allocs: t.ac.read(), Start: int64(time.Since(t.t0))})
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = now
	t.spans[i].Allocs = t.ac.read() - t.spans[i].Allocs
	return time.Duration(now - t.spans[i].Start)
}

// layerTotal is what the spans of one name add up to.
type layerTotal struct {
	count  int
	self   time.Duration // duration minus the part child spans cover
	allocs uint64        // likewise net of children
}

// totals folds the span list into per-name self times.
func (t *tracer) totals() map[string]layerTotal {
	out := map[string]layerTotal{}
	if t == nil {
		return out
	}
	childTime := make([]int64, len(t.spans))
	childAllocs := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += s.End - s.Start
			childAllocs[s.Parent] += s.Allocs
		}
	}
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.count++
		lt.self += time.Duration(s.End - s.Start - childTime[i])
		if s.Allocs > childAllocs[i] {
			lt.allocs += s.Allocs - childAllocs[i]
		}
		out[s.Name] = lt
	}
	return out
}

// durations lists, in order, how long each span of one name took.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
