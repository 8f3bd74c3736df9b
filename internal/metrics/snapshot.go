package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// MetricSnapshot is one metric's frozen state inside a Snapshot.
// Exactly one of Count (counters), Value (gauges), or Hist (histograms)
// is meaningful, selected by Kind.
type MetricSnapshot struct {
	// Name and Labels identify the metric; labels are sorted by key.
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	// Kind is "counter", "gauge", or "histogram".
	Kind string `json:"kind"`
	// Help is the registration-time description.
	Help string `json:"help,omitempty"`
	// Count carries a counter's value.
	Count uint64 `json:"count,omitempty"`
	// Value carries a gauge's value.
	Value float64 `json:"value,omitempty"`
	// Hist carries a histogram's buckets.
	Hist *HistogramSnapshot `json:"hist,omitempty"`
}

// ID renders the metric's canonical identity name{k="v",...}.
func (m MetricSnapshot) ID() string { return metricID(m.Name, m.Labels) }

// HistogramSnapshot is a histogram's frozen buckets. Bounds are the
// finite upper bounds; Counts has one extra trailing slot for the
// overflow bucket, so the counts always sum to Count.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"total"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// SeriesSnapshot is one registered time series (Registry.Series):
// virtual-time instants in seconds and the sampled values.
type SeriesSnapshot struct {
	Name   string    `json:"name"`
	T      []float64 `json:"t"`
	Values []float64 `json:"values"`
}

// Snapshot is a run-scoped export of every registered metric, ordered
// by canonical id so the serialized form is byte-identical for
// identical runs. EndSeconds is the virtual end time of the run when
// the caller provides it (zero otherwise); no wall-clock state is ever
// recorded, keeping snapshots deterministic.
type Snapshot struct {
	// EndSeconds is the virtual instant the snapshot was taken.
	EndSeconds float64 `json:"end_seconds,omitempty"`
	// Metrics lists every registered metric sorted by id.
	Metrics []MetricSnapshot `json:"metrics"`
	// Series lists every series registered through Registry.Series,
	// sorted by name; empty when none was.
	Series []SeriesSnapshot `json:"series,omitempty"`
}

// Snapshot freezes the registry: pull functions are evaluated, histograms
// are read, series are copied out. The result is sorted by
// metric id and safe to retain after the registry is discarded.
func (r *Registry) Snapshot(endSeconds float64) *Snapshot {
	s := &Snapshot{EndSeconds: endSeconds}
	for _, m := range r.metrics {
		ms := MetricSnapshot{Name: m.name, Labels: m.labels, Kind: m.kind.String(), Help: m.help}
		switch m.kind {
		case kindCounterFunc:
			ms.Count = m.counterFn()
		case kindGaugeFunc:
			ms.Value = m.gaugeFn()
		case kindHistogram:
			h := m.hist
			ms.Hist = &HistogramSnapshot{
				Bounds: h.Bounds(),
				Counts: h.Counts(),
				Count:  h.Count(),
				Sum:    h.Sum(),
				Min:    h.Min(),
				Max:    h.Max(),
			}
		}
		s.Metrics = append(s.Metrics, ms)
	}
	sort.Slice(s.Metrics, func(i, j int) bool { return s.Metrics[i].ID() < s.Metrics[j].ID() })
	for _, series := range r.series {
		ss := SeriesSnapshot{Name: series.Name}
		for _, p := range series.Points() {
			ss.T = append(ss.T, p.T)
			ss.Values = append(ss.Values, p.V)
		}
		s.Series = append(s.Series, ss)
	}
	sort.Slice(s.Series, func(i, j int) bool { return s.Series[i].Name < s.Series[j].Name })
	return s
}

// Get returns the snapshot entry with the given canonical id (the bare
// name for unlabelled metrics), or false.
func (s *Snapshot) Get(id string) (MetricSnapshot, bool) {
	for _, m := range s.Metrics {
		if m.ID() == id {
			return m, true
		}
	}
	return MetricSnapshot{}, false
}

// CounterValue returns a counter's value by canonical id (zero when
// absent), a convenience for tests and table printers.
func (s *Snapshot) CounterValue(id string) uint64 {
	m, ok := s.Get(id)
	if !ok {
		return 0
	}
	return m.Count
}

// GaugeValue returns a gauge's value by canonical id (zero when absent).
func (s *Snapshot) GaugeValue(id string) float64 {
	m, ok := s.Get(id)
	if !ok {
		return 0
	}
	return m.Value
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers, histogram _bucket lines
// with cumulative counts and an le="+Inf" terminator, _sum and _count.
// Series are omitted — the text format has no notion of them.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	for _, m := range s.Metrics {
		if m.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, m.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
			return err
		}
		var err error
		switch {
		case m.Hist != nil:
			err = writePromHistogram(w, m)
		case m.Kind == "counter":
			_, err = fmt.Fprintf(w, "%s %d\n", m.ID(), m.Count)
		default:
			_, err = fmt.Fprintf(w, "%s %s\n", m.ID(), promFloat(m.Value))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram renders one histogram's cumulative bucket lines.
func writePromHistogram(w io.Writer, m MetricSnapshot) error {
	var cum uint64
	for i, b := range m.Hist.Bounds {
		cum += m.Hist.Counts[i]
		le := append(append([]Label(nil), m.Labels...), Label{Key: "le", Value: promFloat(b)})
		if _, err := fmt.Fprintf(w, "%s %d\n", metricID(m.Name+"_bucket", le), cum); err != nil {
			return err
		}
	}
	cum += m.Hist.Counts[len(m.Hist.Counts)-1]
	inf := append(append([]Label(nil), m.Labels...), Label{Key: "le", Value: "+Inf"})
	if _, err := fmt.Fprintf(w, "%s %d\n", metricID(m.Name+"_bucket", inf), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", metricID(m.Name+"_sum", m.Labels), promFloat(m.Hist.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", metricID(m.Name+"_count", m.Labels), m.Hist.Count)
	return err
}

// promFloat formats a float the shortest way that round-trips.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Named pairs a snapshot with the run it came from, for commands that
// export several runs into one file.
type Named struct {
	Name     string    `json:"name"`
	Snapshot *Snapshot `json:"snapshot"`
}

// fileFormat is the on-disk layout of a -metrics export.
type fileFormat struct {
	Schema    string  `json:"schema"`
	Snapshots []Named `json:"snapshots"`
}

// FileSchema identifies the -metrics JSON export layout.
const FileSchema = "dtmetrics/v1"

// WriteFile writes named snapshots to path as indented JSON under the
// dtmetrics/v1 schema, in the given order.
func WriteFile(path string, snaps []Named) error {
	data, err := json.MarshalIndent(fileFormat{Schema: FileSchema, Snapshots: snaps}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
