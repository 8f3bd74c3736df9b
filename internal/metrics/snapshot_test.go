package metrics

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dtdctcp/internal/sim"
)

// buildSnapshot assembles a registry exercising every metric kind.
func buildSnapshot() *Snapshot {
	r := NewRegistry()
	r.CounterFunc("requests_total", "requests served", func() uint64 { return 12 }, L("port", "p0"))
	r.GaugeFunc("queue_pkts", "instantaneous depth", func() float64 { return 3.5 })
	r.CounterFunc("events_total", "", func() uint64 { return 99 })
	r.GaugeFunc("ratio", "", func() float64 { return 0.25 })
	h := r.Histogram("latency_us", "per-packet latency", LinearBounds(10, 10, 3))
	for _, v := range []float64{5, 15, 25, 35, 100} {
		h.Observe(v)
	}
	return r.Snapshot(1.5)
}

func TestMarshalIndentByteStable(t *testing.T) {
	a, err := json.MarshalIndent(buildSnapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(buildSnapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("identical registries marshalled differently")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := buildSnapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP requests_total requests served",
		"# TYPE requests_total counter",
		`requests_total{port="p0"} 12`,
		"# TYPE queue_pkts gauge",
		"queue_pkts 3.5",
		"events_total 99",
		"ratio 0.25",
		"# TYPE latency_us histogram",
		`latency_us_bucket{le="10"} 1`,
		`latency_us_bucket{le="20"} 2`,
		`latency_us_bucket{le="30"} 3`,
		`latency_us_bucket{le="+Inf"} 5`,
		"latency_us_sum 180",
		"latency_us_count 5",
	} {
		if !strings.Contains(out, want+"\n") && !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n---\n%s", want, out)
		}
	}
}

// TestWriteReadFileRoundTrip: WriteFile's export parses back under its
// schema, with every run's name and snapshot intact.
func TestWriteReadFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	in := []Named{{Name: "run-a", Snapshot: buildSnapshot()}}
	if err := WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out fileFormat
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Schema != FileSchema || len(out.Snapshots) != 1 || out.Snapshots[0].Name != "run-a" {
		t.Fatalf("round trip lost the schema or names: %+v", out)
	}
	want, _ := json.Marshal(in[0].Snapshot)
	got, _ := json.Marshal(out.Snapshots[0].Snapshot)
	if !bytes.Equal(got, want) {
		t.Fatal("round trip changed snapshot content")
	}
}

func TestSamplerSeriesInSnapshot(t *testing.T) {
	r := NewRegistry()
	engine := sim.NewEngine(1)
	var depth float64
	read := func() float64 { return depth }
	r.GaugeFunc("depth", "", read)
	series := r.Series("depth_series")
	var tick func()
	tick = func() {
		series.Add(engine.Now().Seconds(), read())
		engine.After(10*time.Millisecond, tick)
	}
	engine.After(10*time.Millisecond, tick)
	engine.After(5*time.Millisecond, func() { depth = 1 })
	engine.After(15*time.Millisecond, func() { depth = 2 })
	// The tick reschedules forever, so run to a horizon rather than
	// draining the queue.
	if err := engine.RunFor(25 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	s := r.Snapshot(engine.Now().Seconds())
	if len(s.Series) != 1 || s.Series[0].Name != "depth_series" {
		t.Fatalf("series missing from snapshot: %+v", s.Series)
	}
	ser := s.Series[0]
	// Ticks at exactly 10ms and 20ms of virtual time: sees the 5ms and
	// 15ms gauge updates respectively.
	wantT := []float64{0.010, 0.020}
	wantV := []float64{1, 2}
	if len(ser.T) != len(wantT) {
		t.Fatalf("got %d samples, want %d: %+v", len(ser.T), len(wantT), ser)
	}
	for i := range wantT {
		if ser.T[i] != wantT[i] || ser.Values[i] != wantV[i] {
			t.Fatalf("sample %d = (%v, %v), want (%v, %v)", i, ser.T[i], ser.Values[i], wantT[i], wantV[i])
		}
	}
}
