//go:build !race

package metrics_test

import (
	"testing"
	"time"

	"dtdctcp/internal/invariant"
	"dtdctcp/internal/metrics"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
)

// TestHandlesAllocFree pins the record path of the one handle type:
// Observe performs no heap allocations, in range or in the overflow
// bucket. This is the registry's core contract — instrumentation must be
// free to leave on.
func TestHandlesAllocFree(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate; alloc accounting is meaningless")
	}
	r := metrics.NewRegistry()
	h := r.Histogram("h", "", metrics.LinearBounds(10, 10, 8))
	avg := testing.AllocsPerRun(1000, func() {
		h.Observe(35)
		h.Observe(1e9) // overflow bucket
	})
	if avg != 0 {
		t.Fatalf("record path allocated %.2f times per round, want 0", avg)
	}
}

type dropSink struct{ n int }

func (d *dropSink) Deliver(*netsim.Packet) { d.n++ }

// TestInstrumentedForwardSteadyStateAllocFree is the satellite overhead
// pin: the netsim steady state of internal/netsim's alloc tests must
// remain zero-alloc with the full metrics layer attached — engine
// counters instrumented, a queue-depth histogram monitoring the busy
// port. Mirrors netsim.TestForwardSteadyStateAllocFree but with
// observability on.
func TestInstrumentedForwardSteadyStateAllocFree(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate; alloc accounting is meaningless")
	}
	e := sim.NewEngine(1)
	n := netsim.NewNetwork(e)
	src := n.AddHost("src")
	dst := n.AddHost("dst")
	sw := n.AddSwitch("sw")
	cfg := netsim.PortConfig{Rate: 100 * netsim.Gbps, Delay: time.Microsecond, Buffer: 1 << 24}
	if err := n.Connect(src, sw, cfg, cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(dst, sw, cfg, cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	sink := &dropSink{}
	dst.Register(1, sink)

	reg := metrics.NewRegistry()
	metrics.InstrumentEngineStats(reg, e.Stats)
	hist := reg.Histogram("port_queue_depth_pkts", "", metrics.LinearBounds(1, 1, 64))
	src.Uplink().SetMonitor(metrics.NewQueueDepthMonitor(hist, 1500))

	send := func() {
		pkt := src.Network().AllocPacket()
		pkt.Flow = 1
		pkt.Dst = dst.ID()
		pkt.Size = 1500
		pkt.ECT = true
		src.Send(pkt)
	}

	// Warm-up grows rings, free list, and packet pool to steady state.
	for i := 0; i < 512; i++ {
		send()
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	const batch = 64
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < batch; i++ {
			send()
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("instrumented steady state allocated %.2f times per %d-packet batch, want 0", avg, batch)
	}
	if sink.n == 0 {
		t.Fatal("nothing delivered")
	}
	if hist.Count() == 0 {
		t.Fatal("queue-depth monitor observed nothing")
	}
	// The pull instrumentation only pays at snapshot time; the counters
	// must nonetheless reflect the traffic just forwarded.
	s := reg.Snapshot(e.Now().Seconds())
	if s.CounterValue("sim_events_executed_total") == 0 {
		t.Fatal("engine instrumentation read zero executed events")
	}
}
