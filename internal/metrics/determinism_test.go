package metrics_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dtdctcp/internal/core"
	"dtdctcp/internal/metrics"
	"dtdctcp/internal/netsim"
)

var update = flag.Bool("update", false, "rewrite testdata golden snapshots")

// goldenConfig is the run behind the committed golden snapshot: a
// sampler-enabled dumbbell chosen so every instrumented layer — engine,
// bottleneck port, senders — has something to say.
func goldenConfig() core.DumbbellConfig {
	return core.DumbbellConfig{
		Protocol:           core.DCTCP(40, 1.0/16),
		Flows:              8,
		Rate:               1 * netsim.Gbps,
		RTT:                100 * time.Microsecond,
		BufferPkts:         100,
		Duration:           10 * time.Millisecond,
		Warmup:             2 * time.Millisecond,
		Seed:               1,
		MetricsSampleEvery: 500 * time.Microsecond,
	}
}

func goldenRun(t *testing.T) *metrics.Snapshot {
	t.Helper()
	res, err := core.RunDumbbell(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("metrics-enabled run returned no snapshot")
	}
	return res.Metrics
}

// TestSnapshotRepeatable: the same seed yields byte-identical snapshots
// across repeated runs in one process.
func TestSnapshotRepeatable(t *testing.T) {
	ja, err := json.Marshal(goldenRun(t))
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(goldenRun(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatal("repeat runs produced different snapshot JSON")
	}
}

// TestSnapshotWorkerIndependent: snapshots are byte-identical whether
// the sweep runs on 1 worker or 8 — each point owns a private registry
// seeded only by the configuration.
func TestSnapshotWorkerIndependent(t *testing.T) {
	base := goldenConfig()
	flows := []int{4, 8, 16}
	one, err := core.SweepFlowsParallel(context.Background(), base, flows, 1)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := core.SweepFlowsParallel(context.Background(), base, flows, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flows {
		sa, sb := one[i].Result.Metrics, eight[i].Result.Metrics
		if sa == nil || sb == nil {
			t.Fatalf("N=%d: missing snapshot", flows[i])
		}
		ja, err := json.Marshal(sa)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := json.Marshal(sb)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ja, jb) {
			t.Fatalf("N=%d: snapshot differs between workers=1 and workers=8", flows[i])
		}
	}
}

// TestGoldenSnapshot pins the full serialized snapshot of the golden
// run. Regenerate with: go test ./internal/metrics -run Golden -update
func TestGoldenSnapshot(t *testing.T) {
	got, err := json.MarshalIndent(goldenRun(t), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden_dumbbell.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot drifted from %s (run with -update if intended)", path)
	}
}

// TestGoldenCoversAllLayers asserts the acceptance criterion directly:
// the golden run's snapshot carries nonzero counters from all three
// instrumented layers, and the sampler produced series.
func TestGoldenCoversAllLayers(t *testing.T) {
	s := goldenRun(t)
	for _, id := range []string{
		"sim_events_executed_total",              // engine
		`port_enqueued_total{port="bottleneck"}`, // netsim
		"tcp_segments_sent_total",                // tcp
		"tcp_acks_received_total",                // tcp (ECE-ratio denominator)
	} {
		if s.CounterValue(id) == 0 {
			t.Errorf("layer counter %s is zero in the golden run", id)
		}
	}
	if m, ok := s.Get(`port_queue_depth_pkts{port="bottleneck"}`); !ok || m.Hist == nil || m.Hist.Count == 0 {
		t.Error("bottleneck queue-depth histogram is empty")
	}
	if len(s.Series) == 0 {
		t.Error("sampler produced no series")
	}
	names := map[string]bool{}
	for _, ss := range s.Series {
		names[ss.Name] = true
	}
	for _, name := range []string{"metrics_queue_pkts", "metrics_alpha_mean", "metrics_cwnd_mean_pkts"} {
		if !names[name] {
			t.Errorf("series %s missing from snapshot", name)
		}
	}
}

// TestMetricsDoNotPerturbResults: with the sampler off, enabling
// metrics must not change a single result field — collection is purely
// pull-based.
func TestMetricsDoNotPerturbResults(t *testing.T) {
	cfg := goldenConfig()
	cfg.MetricsSampleEvery = 0 // sampler ticks are events; exclude them
	cfg.Metrics = false
	off, err := core.RunDumbbell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = true
	on, err := core.RunDumbbell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if on.Metrics == nil {
		t.Fatal("metrics-enabled run returned no snapshot")
	}
	if off.QueueMeanPkts != on.QueueMeanPkts || off.QueueStdPkts != on.QueueStdPkts ||
		off.Utilization != on.Utilization || off.Timeouts != on.Timeouts ||
		off.Marks != on.Marks || off.Events != on.Events {
		t.Fatalf("enabling metrics changed results:\noff: %+v\non:  %+v", off, on)
	}
}
