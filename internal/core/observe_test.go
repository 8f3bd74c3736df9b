package core

import (
	"context"
	"testing"
	"time"

	"dtdctcp/internal/sim"
	"dtdctcp/internal/workload"
)

// The observability layer is exercised end to end by cmd/dtsim and the
// metrics package; these tests pin it from inside core so the observer
// wiring (dumbbell, testbed, sampler) keeps its own coverage.

func TestDumbbellMetricsSnapshot(t *testing.T) {
	cfg := paperDumbbell(DCTCP(40, 1.0/16), 6)
	cfg.Duration = 30 * time.Millisecond
	cfg.Warmup = 10 * time.Millisecond
	cfg.Metrics = true
	res, err := RunDumbbell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil || len(res.Metrics.Metrics) == 0 {
		t.Fatal("Metrics snapshot missing despite Metrics: true")
	}
	names := map[string]bool{}
	for _, m := range res.Metrics.Metrics {
		names[m.Name] = true
	}
	for _, want := range []string{
		"sim_events_executed_total",
		"port_queue_depth_pkts",
		"tcp_alpha_mean",
	} {
		if !names[want] {
			t.Errorf("snapshot lacks %q", want)
		}
	}
	if res.Metrics.EndSeconds <= 0 {
		t.Fatalf("EndSeconds = %v", res.Metrics.EndSeconds)
	}
}

func TestDumbbellMetricsSampler(t *testing.T) {
	cfg := paperDumbbell(DTDCTCP(30, 50, 1.0/16), 4)
	cfg.Duration = 20 * time.Millisecond
	cfg.Warmup = 5 * time.Millisecond
	cfg.MetricsSampleEvery = time.Millisecond // implies Metrics
	res, err := RunDumbbell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil || len(res.Metrics.Series) == 0 {
		t.Fatal("sampler series missing despite MetricsSampleEvery")
	}
	for _, s := range res.Metrics.Series {
		if len(s.T) == 0 || len(s.T) != len(s.Values) {
			t.Fatalf("series %q has %d/%d points", s.Name, len(s.T), len(s.Values))
		}
	}
}

// TestMeanCwndMatchesSummedWindows pins LongLived.MeanCwnd, which the
// cwnd gauge and the sampler's cwnd series read, to the closure each of
// them computed inline before: the senders' windows in packets, summed in
// sender order and divided by the flow count. It must agree to the bit at
// every tick of a running dumbbell, while the windows move.
func TestMeanCwndMatchesSummedWindows(t *testing.T) {
	cfg := paperDumbbell(DTDCTCP(30, 50, 1.0/16), 4)
	r := newRun(cfg.Seed)
	star, err := r.star(cfg.Protocol, cfg.Flows, cfg.Rate, cfg.RTT, cfg.BufferPkts, cfg.SharedBuffer)
	if err != nil {
		t.Fatal(err)
	}
	flows := workload.StartLongLived(r.engine, workload.LongLivedConfig{
		Hosts:       star.Senders,
		Receiver:    star.Receiver,
		TCP:         cfg.Protocol.TCP,
		StartJitter: cfg.RTT,
	})
	seen := map[float64]bool{}
	r.every(time.Millisecond, func(sim.Time) {
		var total float64
		for _, snd := range flows.Senders {
			total += snd.CwndPackets()
		}
		want := total / float64(len(flows.Senders))
		if got := flows.MeanCwnd(); got != want {
			t.Fatalf("MeanCwnd = %v, closure = %v", got, want)
		}
		seen[want] = true
	})
	if err := r.engine.RunUntil(sim.FromDuration(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if len(seen) < 5 {
		t.Fatalf("mean cwnd took %d values over 20 ticks; the windows did not move", len(seen))
	}
}

func TestTestbedMetricsSnapshot(t *testing.T) {
	cfg := DefaultTestbed(DCTCP(21, 1.0/16), 4)
	cfg.Metrics = true
	res, err := RunIncast(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil || len(res.Metrics.Metrics) == 0 {
		t.Fatal("testbed Metrics snapshot missing")
	}
}

// TestSweepLoadsSerial covers the fabric sweep at one worker.
func TestSweepLoadsSerial(t *testing.T) {
	base := fabricConfig(t)
	base.Flows = 20
	pts, err := SweepLoadsParallel(context.Background(), base, []float64{0.3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Load != 0.3 || pts[0].Result.Completed != 20 {
		t.Fatalf("SweepLoadsParallel: %+v", pts)
	}
}
