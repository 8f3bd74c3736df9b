package netsim

import (
	"testing"
	"time"

	"dtdctcp/internal/sim"
)

// faultNet wires src → sw → dst and returns the switch's port toward dst
// (the one the tests mutate). The access legs run at access, the mutated
// bottleneck at bneck; an access faster than the bottleneck builds a
// standing queue at the mutated port.
func faultNet(t testing.TB, access, bneck Rate) (*sim.Engine, *Network, *Host, *Host, *Port) {
	t.Helper()
	e := sim.NewEngine(1)
	n := NewNetwork(e)
	src := n.AddHost("src")
	dst := n.AddHost("dst")
	sw := n.AddSwitch("sw")
	acc := PortConfig{Rate: access, Delay: 10 * time.Microsecond, Buffer: 1 << 20}
	bn := PortConfig{Rate: bneck, Delay: 10 * time.Microsecond, Buffer: 1 << 20}
	if err := n.Connect(src, sw, acc, acc); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(dst, sw, acc, bn); err != nil {
		t.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	return e, n, src, dst, sw.PortTo(dst.ID())
}

func sendOne(n *Network, src, dst *Host, size int) {
	pkt := n.AllocPacket()
	pkt.Flow = 1
	pkt.Dst = dst.ID()
	pkt.Size = size
	src.Send(pkt)
}

func TestLinkDownDropsArrivals(t *testing.T) {
	e, n, src, dst, port := faultNet(t, Gbps, Gbps)
	sink := &countingSink{}
	dst.Register(1, sink)

	port.SetDown(true, false)
	for i := 0; i < 5; i++ {
		sendOne(n, src, dst, 1500)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sink.n != 0 {
		t.Fatalf("delivered %d packets over a down link", sink.n)
	}
	if got := port.Stats().DroppedLinkDown; got != 5 {
		t.Fatalf("DroppedLinkDown = %d, want 5", got)
	}
}

func TestLinkDownCutsInFlightSerialization(t *testing.T) {
	// 10 Mbps: a 1500-byte packet serializes in 1.2 ms, so we can catch
	// it mid-transmission.
	e, n, src, dst, port := faultNet(t, 10*Mbps, 10*Mbps)
	sink := &countingSink{}
	dst.Register(1, sink)

	sendOne(n, src, dst, 1500)
	// The access link is also 10 Mbps here, so the packet reaches the
	// switch port after one serialization + propagation; cut the
	// bottleneck in the middle of its own serialization.
	e.Schedule(sim.FromDuration(1800*time.Microsecond), func() {
		if !port.Down() && port.QueuePackets() == 0 && port.Stats().Dequeued == 1 {
			port.SetDown(true, false)
		} else {
			t.Fatalf("packet not in serialization at cut time (dequeued=%d)", port.Stats().Dequeued)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sink.n != 0 {
		t.Fatalf("delivered %d packets despite mid-serialization cut", sink.n)
	}
	if got := port.Stats().DroppedLinkDown; got != 1 {
		t.Fatalf("DroppedLinkDown = %d, want 1", got)
	}
}

func TestLinkDownDrainModeKeepsQueue(t *testing.T) {
	// Fast access (0.12 ms/pkt) into a slow bottleneck (1.2 ms/pkt): all
	// eight packets reach the switch queue within ~1 ms, long before the
	// bottleneck can drain them.
	e, n, src, dst, port := faultNet(t, 100*Mbps, 10*Mbps)
	sink := &countingSink{}
	dst.Register(1, sink)

	for i := 0; i < 8; i++ {
		sendOne(n, src, dst, 1500)
	}
	// Cut at 2.5 ms: one packet delivered (done at ~1.33 ms), the second
	// mid-serialization (cut → dropped), six held in the queue. Restore at
	// 4 ms and let the survivors drain.
	e.Schedule(sim.FromDuration(2500*time.Microsecond), func() {
		port.SetDown(true, false)
	})
	e.Schedule(sim.FromDuration(4*time.Millisecond), func() {
		if port.QueuePackets() == 0 {
			t.Fatal("queue empty at link-up; drain mode did not hold packets across the outage")
		}
		port.SetDown(false, false)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := port.Stats().DroppedLinkDown; got != 1 {
		t.Fatalf("DroppedLinkDown = %d, want 1 (only the in-flight packet)", got)
	}
	if sink.n != 7 {
		t.Fatalf("delivered %d, want 7 (one pre-cut + six drained after link-up)", sink.n)
	}
}

func TestLinkDownFlushEmptiesQueue(t *testing.T) {
	e, n, src, dst, port := faultNet(t, 10*Mbps, 10*Mbps)
	sink := &countingSink{}
	dst.Register(1, sink)

	for i := 0; i < 8; i++ {
		sendOne(n, src, dst, 1500)
	}
	e.Schedule(sim.FromDuration(3*time.Millisecond), func() {
		port.SetDown(true, true)
		if port.QueuePackets() != 0 || port.QueueLen() != 0 {
			t.Fatalf("flush left %d packets / %d bytes queued", port.QueuePackets(), port.QueueLen())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := int(port.Stats().DroppedLinkDown) + sink.n; got != 8 {
		t.Fatalf("accounting: %d dropped + %d delivered, want 8", port.Stats().DroppedLinkDown, sink.n)
	}
	if port.Stats().DroppedLinkDown == 0 {
		t.Fatal("flush at 3 ms should have caught queued packets")
	}
}

func TestCorruptionDropsProbabilistically(t *testing.T) {
	e, n, src, dst, port := faultNet(t, Gbps, Gbps)
	sink := &countingSink{}
	dst.Register(1, sink)

	port.SetCorruptProb(1)
	for i := 0; i < 20; i++ {
		sendOne(n, src, dst, 1500)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sink.n != 0 {
		t.Fatalf("prob=1 still delivered %d packets", sink.n)
	}
	if got := port.Stats().DroppedCorrupt; got != 20 {
		t.Fatalf("DroppedCorrupt = %d, want 20", got)
	}

	port.SetCorruptProb(0.5)
	for i := 0; i < 200; i++ {
		sendOne(n, src, dst, 1500)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sink.n < 50 || sink.n > 150 {
		t.Fatalf("prob=0.5 delivered %d of 200; corruption draw looks broken", sink.n)
	}

	port.SetCorruptProb(2)
	if port.CorruptProb() != 1 {
		t.Fatalf("SetCorruptProb(2) = %v, want clamp to 1", port.CorruptProb())
	}
	port.SetCorruptProb(-1)
	if port.CorruptProb() != 0 {
		t.Fatalf("SetCorruptProb(-1) = %v, want clamp to 0", port.CorruptProb())
	}
}

// TestFaultDropsRecyclePackets pins the free-list contract for the new
// drop paths: packets lost to a down link, a flush, or corruption return
// to the network pool and are handed out again by AllocPacket.
func TestFaultDropsRecyclePackets(t *testing.T) {
	e, n, src, dst, port := faultNet(t, Gbps, Gbps)
	sink := &countingSink{}
	dst.Register(1, sink)

	// Prime the pool with exactly one packet in circulation.
	sendOne(n, src, dst, 1500)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	seen := n.AllocPacket()
	n.FreePacket(seen)

	exercise := func(name string, drop func()) {
		drop()
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		got := n.AllocPacket()
		if got != seen {
			t.Fatalf("%s: dropped packet was not recycled to the pool", name)
		}
		n.FreePacket(got)
	}

	exercise("link-down arrival", func() {
		port.SetDown(true, false)
		pkt := n.AllocPacket()
		pkt.Flow = 1
		pkt.Dst = dst.ID()
		pkt.Size = 1500
		port.Send(pkt)
		port.SetDown(false, false)
	})
	exercise("corruption", func() {
		port.SetCorruptProb(1)
		pkt := n.AllocPacket()
		pkt.Flow = 1
		pkt.Dst = dst.ID()
		pkt.Size = 1500
		port.Send(pkt)
		port.SetCorruptProb(0)
	})
}

func TestFaultKindString(t *testing.T) {
	for kind, want := range map[FaultKind]string{
		FaultCorrupt:  "corrupt",
		FaultLinkDown: "link-down",
	} {
		if got := kind.String(); got != want {
			t.Errorf("FaultKind(%d).String() = %q, want %q", kind, got, want)
		}
	}
}
