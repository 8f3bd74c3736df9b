//go:build !race

package netsim

import (
	"testing"
	"time"

	"dtdctcp/internal/aqm"
	"dtdctcp/internal/invariant"
	"dtdctcp/internal/sim"
)

// TestForwardSteadyStateAllocFree pins down the tentpole property on the
// network layer: once the event free list, the port rings, and the packet
// pool are warm, forwarding a pooled packet host→switch→host performs no
// heap allocations — not for events, not for queue slots, not for the
// packet itself.
//
// The file is excluded from -race builds (the race runtime instruments
// allocations) and skipped under -tags invariants (Assert's varargs box
// allocates by design).
func TestForwardSteadyStateAllocFree(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate; alloc accounting is meaningless")
	}
	e, src, dst := benchNet(t, nil)
	sink := &countingSink{}
	dst.Register(1, sink)

	send := func() {
		pkt := src.Network().AllocPacket()
		pkt.Flow = 1
		pkt.Dst = dst.ID()
		pkt.Size = 1500
		pkt.ECT = true
		src.Send(pkt)
	}

	// Warm-up: grow rings, event free list, and packet pool to their
	// steady-state working set.
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
		t.Fatalf("steady-state forwarding allocated %.2f times per %d-packet batch, want 0", avg, batch)
	}
	if sink.n == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestPortSendSteadyStateAllocFree isolates Port.Send + transmit chain:
// enqueue/dequeue through the ring with a busy link must not allocate.
func TestPortSendSteadyStateAllocFree(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate; alloc accounting is meaningless")
	}
	e, src, dst := benchNet(t, nil)
	sink := &countingSink{}
	dst.Register(1, sink)
	port := src.Uplink()

	for i := 0; i < 256; i++ {
		pkt := src.Network().AllocPacket()
		pkt.Flow = 1
		pkt.Dst = dst.ID()
		pkt.Size = 1500
		port.Send(pkt)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			pkt := src.Network().AllocPacket()
			pkt.Flow = 1
			pkt.Dst = dst.ID()
			pkt.Size = 1500
			port.Send(pkt)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Port.Send steady state allocated %.2f times per batch, want 0", avg)
	}
}

// TestSharedBufferSendSteadyStateAllocFree pins the pooled admission path:
// swapping the static per-port bound for the dynamic-threshold pool must
// keep enqueue/dequeue off the heap — admit() and the pool counter update
// are arithmetic on existing state, nothing more.
func TestSharedBufferSendSteadyStateAllocFree(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate; alloc accounting is meaningless")
	}
	sb, err := NewSharedBuffer(64*pktSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := newSharedStar(t, 2, 10*Gbps, Gbps, 64, sb)
	sinks := make([]*countingSink, 2)
	for i, d := range st.dsts {
		sinks[i] = &countingSink{}
		d.Register(FlowID(i+1), sinks[i])
	}

	cycle := func() {
		for i := 0; i < 32; i++ {
			st.offer(i % 2)
		}
		if err := st.engine.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		cycle()
	}

	avg := testing.AllocsPerRun(200, cycle)
	if avg != 0 {
		t.Fatalf("pooled Port.Send steady state allocated %.2f times per batch, want 0", avg)
	}
	if sinks[0].n == 0 || sinks[1].n == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestECMPForwardSteadyStateAllocFree pins the multi-path egress: a
// packet crossing a switch with an ECMP set resolves its port via the
// flow hash, and that lookup must stay off the heap like the
// single-path route lookup it replaces.
func TestECMPForwardSteadyStateAllocFree(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate; alloc accounting is meaningless")
	}
	e, n, h0, h1, s0, _, _ := diamond(t, 7)
	if len(nextHops(s0, h1.ID())) != 2 {
		t.Fatal("diamond lost its ECMP set")
	}
	sink := &countingSink{}
	for f := FlowID(1); f <= 8; f++ {
		h1.Register(f, sink)
	}

	send := func() {
		// Rotate flows so both equal-cost ports stay on the hot path.
		for f := FlowID(1); f <= 8; f++ {
			pkt := n.AllocPacket()
			pkt.Flow = f
			pkt.Dst = h1.ID()
			pkt.Size = 1500
			h0.Send(pkt)
		}
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	avg := testing.AllocsPerRun(200, func() {
		send()
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("ECMP forwarding allocated %.2f times per batch, want 0", avg)
	}
	if sink.n == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestPortIsOneAllocation pins a port's construction to the port itself:
// the transmit chain's handlers are package functions, so a port carries
// no closure, and a law with no dequeue side leaves ext unmade.
func TestPortIsOneAllocation(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate; alloc accounting is meaningless")
	}
	n := NewNetwork(sim.NewEngine(1))
	peer := n.AddHost("peer")
	cfg := PortConfig{Rate: Gbps, Delay: time.Microsecond, Buffer: 100 * 1500, Policy: aqm.NewDoubleThresholdPackets(30, 50, 1500)}
	var p *Port
	if avg := testing.AllocsPerRun(100, func() { p = newPort(n, cfg, peer) }); avg != 1 || p.ext != nil {
		t.Fatalf("%.1f allocations per port, ext made %v; want 1 and no ext", avg, p.ext != nil)
	}
}
