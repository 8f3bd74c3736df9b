// Package metrics is the simulator's observability layer: a
// deterministic, zero-alloc-on-hot-path metrics registry holding
// counters, gauges, and fixed-bucket histograms over virtual time.
//
// The design follows the same contract as the rest of the simulator: a
// Registry belongs to exactly one run (one engine, one goroutine), all
// handles are resolved at registration time, and the record path —
// Histogram.Observe — performs no map lookups, no interface boxing, and
// no heap allocations. Snapshots taken at the end of a run are pure
// functions of the run, so two runs with the same seed produce
// byte-identical snapshot JSON regardless of worker count.
//
// Counters and gauges are pull functions (CounterFunc, GaugeFunc) over
// the plain counters each layer already keeps (sim.EngineStats,
// netsim.PortStats, tcp.SenderStats): the function is evaluated only at
// snapshot time, so the instrumented hot path costs nothing at all.
//
// A Registry must not be shared across goroutines. Concurrent sweep
// points each own a private Registry next to their private Engine (see
// internal/runner); snapshots come back with the results in input order.
package metrics

import (
	"fmt"
	"sort"

	"dtdctcp/internal/stats"
)

// Label is one name/value pair qualifying a metric, e.g. port="bottleneck".
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// kind discriminates the metric variants inside the registry.
type kind uint8

const (
	kindCounterFunc kind = iota
	kindGaugeFunc
	kindHistogram
)

// String names the kind for snapshots ("counter", "gauge", "histogram").
func (k kind) String() string {
	switch k {
	case kindCounterFunc:
		return "counter"
	case kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered entry.
type metric struct {
	name   string
	help   string
	labels []Label // sorted by key
	id     string  // name{k="v",...}, the sort and dedup key
	kind   kind

	counterFn func() uint64
	gaugeFn   func() float64
	hist      *Histogram
}

// Registry holds one run's metrics. Create with NewRegistry; register
// everything up front; record through the returned histograms; call
// Snapshot once the run ends. Not safe for concurrent use.
type Registry struct {
	metrics []*metric
	index   map[string]*metric
	series  []*stats.Series
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metric)}
}

// CounterFunc registers a pull counter: fn is evaluated at snapshot
// time, so instrumenting an existing plain counter costs nothing on the
// hot path.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	if fn == nil {
		panic("metrics: nil CounterFunc for " + name)
	}
	r.add(&metric{name: name, help: help, labels: labels, kind: kindCounterFunc, counterFn: fn})
}

// GaugeFunc registers a pull gauge, evaluated at snapshot time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if fn == nil {
		panic("metrics: nil GaugeFunc for " + name)
	}
	r.add(&metric{name: name, help: help, labels: labels, kind: kindGaugeFunc, gaugeFn: fn})
}

// Histogram registers a fixed-bucket histogram over the given finite,
// strictly increasing upper bounds (an implicit overflow bucket catches
// everything above the last bound) and returns its handle.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	h := NewHistogram(bounds)
	r.add(&metric{name: name, help: help, labels: labels, kind: kindHistogram, hist: h})
	return h
}

// Series registers an empty time series that every snapshot exports and
// returns it for the caller to fill. The dumbbell's periodic sampler adds
// one point per tick of virtual time, so a series is a pure function of
// the run.
func (r *Registry) Series(name string) *stats.Series {
	s := stats.NewSeries(name)
	r.series = append(r.series, s)
	return s
}

// add validates, indexes, and stores one metric. Duplicate ids and
// malformed names are programming errors and panic, matching the
// fail-fast convention of Engine.Schedule.
func (r *Registry) add(m *metric) {
	if !validName(m.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", m.name))
	}
	m.labels = sortedLabels(m.labels)
	for _, l := range m.labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("metrics: invalid label key %q on %s", l.Key, m.name))
		}
	}
	m.id = metricID(m.name, m.labels)
	if _, dup := r.index[m.id]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %s", m.id))
	}
	r.index[m.id] = m
	r.metrics = append(r.metrics, m)
}

// validName accepts Prometheus-compatible identifiers:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// sortedLabels returns a copy of labels ordered by key. Sorting at
// registration time keeps every later traversal (snapshot, Prometheus
// text, digest) deterministic without touching a map.
func sortedLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// metricID renders the canonical identity name{k="v",...}, keeping the
// labels in the order given: sorted at registration, and with le
// appended last in the Prometheus text format.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	id := name + "{"
	for i, l := range labels {
		if i > 0 {
			id += ","
		}
		id += fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return id + "}"
}
