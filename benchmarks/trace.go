package main

import "time"

// span is one timed interval around a call the benchmark makes into a
// layer. Parent is the ID of the span that was open when this one began
// (-1 for a root); a span's self time is its duration minus its
// children's.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer records spans in memory; the child writes them out when it
// ends. A nil tracer records nothing, which is how untraced repetitions
// run the same code.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
}

func newTracer(workload string, t0 time.Time) *tracer {
	return &tracer{workload: workload, t0: t0}
}

// span opens a span and returns the function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	id := len(t.spans)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, StartNs: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// seconds returns the duration of the last span with the given name.
func (t *tracer) seconds(name string) float64 {
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].Name == name {
			return float64(t.spans[i].EndNs-t.spans[i].StartNs) / 1e9
		}
	}
	return 0
}
