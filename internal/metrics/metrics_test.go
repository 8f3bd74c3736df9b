package metrics

import (
	"strings"
	"testing"
)

// count and level return constant pull functions for registrations whose
// value the test does not vary.
func count(n uint64) func() uint64   { return func() uint64 { return n } }
func level(v float64) func() float64 { return func() float64 { return v } }

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("events_total", "help", count(5))
	r.GaugeFunc("depth", "help", level(1.5))
	s := r.Snapshot(0)
	if got := s.CounterValue("events_total"); got != 5 {
		t.Fatalf("snapshot counter = %d, want 5", got)
	}
	if got := s.GaugeValue("depth"); got != 1.5 {
		t.Fatalf("snapshot gauge = %v, want 1.5", got)
	}
	for _, m := range s.Metrics {
		if want := map[string]string{"events_total": "counter", "depth": "gauge"}[m.Name]; m.Kind != want || m.Help != "help" {
			t.Fatalf("%s snapshots as kind %q help %q, want %q and \"help\"", m.Name, m.Kind, m.Help, want)
		}
	}
}

func TestPullFunctionsEvaluatedAtSnapshotTime(t *testing.T) {
	r := NewRegistry()
	var n uint64
	var v float64
	r.CounterFunc("pull_total", "", func() uint64 { return n })
	r.GaugeFunc("pull_gauge", "", func() float64 { return v })
	n, v = 7, 3.25
	s := r.Snapshot(0)
	if got := s.CounterValue("pull_total"); got != 7 {
		t.Fatalf("CounterFunc read %d, want 7", got)
	}
	if got := s.GaugeValue("pull_gauge"); got != 3.25 {
		t.Fatalf("GaugeFunc read %v, want 3.25", got)
	}
	// A later snapshot sees later values: nothing was cached.
	n = 9
	if got := r.Snapshot(0).CounterValue("pull_total"); got != 9 {
		t.Fatalf("second snapshot read %d, want 9", got)
	}
}

func TestLabelsSortedAndCanonicalID(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("pkts_total", "", count(0), L("zone", "b"), L("port", "a"))
	s := r.Snapshot(0)
	m := s.Metrics[0]
	if m.Labels[0].Key != "port" || m.Labels[1].Key != "zone" {
		t.Fatalf("labels not sorted by key: %+v", m.Labels)
	}
	want := `pkts_total{port="a",zone="b"}`
	if m.ID() != want {
		t.Fatalf("ID = %q, want %q", m.ID(), want)
	}
}

func TestSameNameDifferentLabelsAllowed(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("pkts_total", "", count(1), L("port", "a"))
	r.CounterFunc("pkts_total", "", count(2), L("port", "b"))
	s := r.Snapshot(0)
	if got := s.CounterValue(`pkts_total{port="a"}`); got != 1 {
		t.Fatalf("port a = %d, want 1", got)
	}
	if got := s.CounterValue(`pkts_total{port="b"}`); got != 2 {
		t.Fatalf("port b = %d, want 2", got)
	}
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want mention of %q", r, want)
		}
	}()
	fn()
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("x_total", "", count(0))
	mustPanic(t, "duplicate", func() { r.GaugeFunc("x_total", "", level(0)) })
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	mustPanic(t, "invalid metric name", func() { r.CounterFunc("", "", count(0)) })
	mustPanic(t, "invalid metric name", func() { r.CounterFunc("9starts_with_digit", "", count(0)) })
	mustPanic(t, "invalid metric name", func() { r.GaugeFunc("has space", "", level(0)) })
	mustPanic(t, "invalid label key", func() { r.CounterFunc("ok_total", "", count(0), L("bad key", "v")) })
	mustPanic(t, "nil CounterFunc", func() { r.CounterFunc("cf_total", "", nil) })
	mustPanic(t, "nil GaugeFunc", func() { r.GaugeFunc("gf", "", nil) })
}

func TestValidNameAcceptsPrometheusIdentifiers(t *testing.T) {
	for _, ok := range []string{"a", "_x", "ns:sub:metric_total", "A9_b"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "9x", "a-b", "a.b", "µ"} {
		if validName(bad) {
			t.Errorf("validName(%q) = true, want false", bad)
		}
	}
}

func TestSnapshotSortedByID(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("z_total", "", count(0))
	r.CounterFunc("a_total", "", count(0))
	r.GaugeFunc("m_gauge", "", level(0))
	s := r.Snapshot(0)
	for i := 1; i < len(s.Metrics); i++ {
		if s.Metrics[i-1].ID() >= s.Metrics[i].ID() {
			t.Fatalf("snapshot not sorted: %q before %q", s.Metrics[i-1].ID(), s.Metrics[i].ID())
		}
	}
}
