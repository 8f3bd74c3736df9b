package netsim

import (
	"testing"
	"time"

	"dtdctcp/internal/aqm"
	"dtdctcp/internal/sim"
)

// ambientPair builds a one-hop a→sw→b topology and returns the switch's
// egress port toward b — the port the ambient load is installed on.
func ambientPair(t *testing.T, e *sim.Engine, cfg PortConfig) (*Host, *Host, *Port) {
	t.Helper()
	_, a, b, sw := buildPair(t, e, cfg)
	port := sw.PortTo(b.ID())
	if port == nil {
		t.Fatal("no switch port toward b")
	}
	return a, b, port
}

// TestAmbientZeroIsNeutral pins the compatibility contract: installing a
// zero ambient load changes nothing about delivery timing.
func TestAmbientZeroIsNeutral(t *testing.T) {
	arrival := func(set bool) sim.Time {
		e := sim.NewEngine(1)
		a, b, port := ambientPair(t, e, linkCfg(10*Gbps, 25*time.Microsecond, 100, nil))
		if set {
			port.SetAmbient(0, 0)
		}
		rx := &sink{eng: e}
		b.Register(1, rx)
		a.Send(&Packet{Flow: 1, Dst: b.ID(), Size: pktSize})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if len(rx.at) != 1 {
			t.Fatalf("delivered %d packets, want 1", len(rx.at))
		}
		return rx.at[0]
	}
	if without, with := arrival(false), arrival(true); without != with {
		t.Fatalf("zero ambient shifted arrival: %v != %v", with, without)
	}
}

// TestAmbientBiasesMarking verifies the AQM sees the total occupancy: an
// ambient contribution above the marking threshold forces CE on a packet
// arriving at an empty real queue.
func TestAmbientBiasesMarking(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := linkCfg(10*Gbps, 25*time.Microsecond, 100, aqm.NewSingleThresholdPackets(20, pktSize))
	a, b, port := ambientPair(t, e, cfg)
	port.SetAmbient(30*pktSize, 0) // ambient alone is above K = 20 packets

	rx := &sink{}
	b.Register(1, rx)
	a.Send(&Packet{Flow: 1, Dst: b.ID(), Size: pktSize, ECT: true})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rx.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(rx.pkts))
	}
	if !rx.pkts[0].CE {
		t.Fatal("packet through an ambient queue above K was not CE-marked")
	}
	if port.Stats().Marked != 1 {
		t.Fatalf("Marked = %d, want 1", port.Stats().Marked)
	}
}

// TestAmbientSqueezesBuffer verifies overflow is judged on the total: an
// ambient load filling the buffer leaves no room for real packets.
func TestAmbientSqueezesBuffer(t *testing.T) {
	e := sim.NewEngine(1)
	a, b, port := ambientPair(t, e, linkCfg(10*Gbps, 25*time.Microsecond, 10, nil))
	port.SetAmbient(10*pktSize, 0) // ambient occupies the whole buffer

	rx := &sink{}
	b.Register(1, rx)
	a.Send(&Packet{Flow: 1, Dst: b.ID(), Size: pktSize})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rx.pkts) != 0 {
		t.Fatalf("delivered %d packets through a full ambient buffer, want 0", len(rx.pkts))
	}
	if got := port.Stats().DroppedOverflow; got != 1 {
		t.Fatalf("DroppedOverflow = %d, want 1", got)
	}
}

// TestAmbientBacklogSlowsSerialization verifies processor sharing over
// queue composition: a packet holding half the total backlog serializes
// at half the link rate — the same delay FIFO would have charged for
// waiting behind one equal-sized ambient packet.
func TestAmbientBacklogSlowsSerialization(t *testing.T) {
	arrival := func(ambient int) sim.Time {
		e := sim.NewEngine(1)
		a, b, port := ambientPair(t, e, linkCfg(1*Gbps, 10*time.Microsecond, 100, nil))
		port.SetAmbient(ambient, 0)
		rx := &sink{eng: e}
		b.Register(1, rx)
		a.Send(&Packet{Flow: 1, Dst: b.ID(), Size: pktSize})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if len(rx.at) != 1 {
			t.Fatalf("delivered %d packets, want 1", len(rx.at))
		}
		return rx.at[0]
	}
	// 1500 B at 1 Gbps is 12 µs. Behind an equal ambient backlog the
	// packet's share is 1500/3000 = 1 Gbps/2, so serialization takes
	// 24 µs. Only the switch egress port carries the ambient load, so
	// the difference between the runs is exactly the extra 12 µs.
	base := arrival(0)
	slow := arrival(pktSize)
	if got, want := (slow - base).Duration(), 12*time.Microsecond; got != want {
		t.Fatalf("half-share backlog delayed arrival by %v, want %v", got, want)
	}
}

// TestAmbientClamps pins the input clamps: negative bytes read back as
// zero, and the consumed rate can never exceed 99.9% of the link.
func TestAmbientClamps(t *testing.T) {
	e := sim.NewEngine(1)
	_, _, port := ambientPair(t, e, linkCfg(1*Gbps, 10*time.Microsecond, 100, nil))

	port.SetAmbient(-5, -3)
	if port.AmbientBytes() != 0 || port.AmbientRate() != 0 {
		t.Fatalf("negative ambient read back as (%d, %v), want (0, 0)",
			port.AmbientBytes(), port.AmbientRate())
	}
	port.SetAmbient(0, 2*Gbps)
	if got, want := port.AmbientRate(), 1*Gbps-1*Gbps/1000; got != want {
		t.Fatalf("oversubscribed consumed rate clamped to %v, want %v", got, want)
	}
	// The serialization share never rounds to zero, however large the
	// ambient backlog.
	port.SetAmbient(1<<40, 0)
	if got := port.serializationRate(pktSize); got < 1 {
		t.Fatalf("serialization rate %v under huge ambient backlog, want >= 1", got)
	}
	if got := port.serializationRate(pktSize); got >= 1*Gbps {
		t.Fatalf("serialization rate %v not reduced by ambient backlog", got)
	}
}

// countingMonitor records every occupancy the port reports.
type countingMonitor struct {
	lens []int
}

func (m *countingMonitor) QueueChanged(_ sim.Time, qlenBytes int) {
	m.lens = append(m.lens, qlenBytes)
}

// TestAmbientMonitorSeesTotal verifies the queue monitor observes real
// plus ambient bytes, and that SetAmbient itself reports the new total so
// time-weighted statistics track coupling ticks.
func TestAmbientMonitorSeesTotal(t *testing.T) {
	e := sim.NewEngine(1)
	a, b, port := ambientPair(t, e, linkCfg(1*Gbps, 10*time.Microsecond, 100, nil))
	mon := &countingMonitor{}
	port.SetMonitor(mon)

	port.SetAmbient(7*pktSize, 0)
	if len(mon.lens) != 1 || mon.lens[0] != 7*pktSize {
		t.Fatalf("SetAmbient reported %v, want [%d]", mon.lens, 7*pktSize)
	}
	// An unchanged ambient occupancy must not spam the monitor.
	port.SetAmbient(7*pktSize, 100*Mbps)
	if len(mon.lens) != 1 {
		t.Fatalf("unchanged ambient occupancy re-notified the monitor: %v", mon.lens)
	}

	rx := &sink{}
	b.Register(1, rx)
	a.Send(&Packet{Flow: 1, Dst: b.ID(), Size: pktSize})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Enqueue then dequeue: totals 8 then 7 packets.
	if len(mon.lens) != 3 || mon.lens[1] != 8*pktSize || mon.lens[2] != 7*pktSize {
		t.Fatalf("monitor saw %v, want [%d %d %d]", mon.lens, 7*pktSize, 8*pktSize, 7*pktSize)
	}
	if got := port.totalQueueLen(); got != 7*pktSize {
		t.Fatalf("TotalQueueLen = %d, want %d", got, 7*pktSize)
	}
	if got := port.QueueLen(); got != 0 {
		t.Fatalf("QueueLen = %d, want 0 (ambient is not real occupancy)", got)
	}
}
