package netsim

import (
	"math"
	"testing"
	"time"

	"dtdctcp/internal/sim"
)

// buildStar builds hostA—sw—hostB with the given per-link delays and
// returns the network. Routes are computed. Only the tests that poke
// unexported fields live here; exported-API partition tests use the
// shared topo.NewStar helper in shard_api_test.go.
func buildStar(t *testing.T, engine *sim.Engine, dA, dB time.Duration) (*Network, *Host, *Host, *Switch) {
	t.Helper()
	n := NewNetwork(engine)
	a := n.AddHost("a")
	b := n.AddHost("b")
	sw := n.AddSwitch("sw")
	if err := n.Connect(a, sw, linkCfg(Gbps, dA, 64, nil), linkCfg(Gbps, dA, 64, nil)); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(b, sw, linkCfg(Gbps, dB, 64, nil), linkCfg(Gbps, dB, 64, nil)); err != nil {
		t.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	return n, a, b, sw
}

func TestDomainNumbering(t *testing.T) {
	n, a, b, sw := buildStar(t, sim.NewEngine(1), 25*time.Microsecond, 25*time.Microsecond)
	if got := n.NumDomains(); got != 4 {
		t.Fatalf("NumDomains = %d, want 4 (2 hosts + 2 switch ports)", got)
	}
	if n.HostDomain(a) != 0 || n.HostDomain(b) != 1 {
		t.Fatalf("host domains %d,%d, want 0,1 (creation order)", n.HostDomain(a), n.HostDomain(b))
	}
	for i := 0; i < sw.Ports(); i++ {
		if got := n.PortDomain(sw.Port(i)); got != 2+i {
			t.Fatalf("switch port %d domain = %d, want %d", i, got, 2+i)
		}
	}
	// ComputeRoutes stamps the same numbering onto the ports themselves,
	// so serial runs ship under the keys a partitioned run would use.
	if a.uplink.srcKey != 0 || b.uplink.srcKey != 1 {
		t.Fatalf("uplink srcKeys %d,%d, want host domains 0,1", a.uplink.srcKey, b.uplink.srcKey)
	}
	for i := 0; i < sw.Ports(); i++ {
		if got := sw.Port(i).srcKey; got != 2+i {
			t.Fatalf("switch port %d srcKey = %d, want %d", i, got, 2+i)
		}
	}
}

// TestPartitionBindsDomains checks the concrete bindings Partition
// installs: per-shard engines for hosts and ports, and per-shard pools.
func TestPartitionBindsDomains(t *testing.T) {
	se := sim.NewShardedEngine(1, 2)
	n, a, b, sw := buildStar(t, se.Shard(0), 25*time.Microsecond, 25*time.Microsecond)
	assign := n.DefaultAssign(2)
	if err := n.Partition(se, assign); err != nil {
		t.Fatal(err)
	}
	if got := a.Engine(); got != se.Shard(assign[0]) {
		t.Fatalf("host a bound to wrong engine")
	}
	if got := b.Engine(); got != se.Shard(assign[1]) {
		t.Fatalf("host b bound to wrong engine")
	}
	for i := 0; i < sw.Ports(); i++ {
		p := sw.Port(i)
		if p.outbox == nil {
			t.Fatalf("switch port %d has no outbox after Partition", i)
		}
		if p.srcKey != 2+i {
			t.Fatalf("switch port %d srcKey = %d after Partition, want %d", i, p.srcKey, 2+i)
		}
	}
	if a.uplink.pool != a.pool {
		t.Fatal("host uplink pool differs from host pool")
	}
}

// TestPartitionedDropsDestinationOutsideTable is the partitioned side of
// TestSwitchDropsDestinationOutsideTable: the shipping port resolves the
// hop at the source, finds no table entry, and charges the packet to the
// switch's no-route shard — here the other one, so it crosses the mailbox
// — where it is counted and recycled.
func TestPartitionedDropsDestinationOutsideTable(t *testing.T) {
	se := sim.NewShardedEngine(1, 2)
	n, a, _, sw := buildStar(t, se.Shard(0), 25*time.Microsecond, 25*time.Microsecond)
	// Domains: host a, host b, then the switch's ports toward a and b.
	if err := n.Partition(se, []int{0, 1, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if a.shard == sw.noRouteShard {
		t.Fatal("host a shares the switch's no-route shard; the drop would not cross shards")
	}
	late := n.AddHost("late")
	dsts := []NodeID{-1, NodeID(len(n.nodes)), late.ID(), math.MaxInt}
	for _, dst := range dsts {
		pkt := a.AllocPacket()
		pkt.Flow, pkt.Dst, pkt.Size = 1, dst, 100
		a.Send(pkt)
	}
	if err := se.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := sw.DroppedNoRoute(); got != uint64(len(dsts)) {
		t.Fatalf("DroppedNoRoute = %d, want %d", got, len(dsts))
	}
	free := 0
	for i := range n.shardPools {
		free += len(n.shardPools[i].free)
	}
	if free != len(dsts) {
		t.Fatalf("%d packets on the shard free lists, want all %d recycled", free, len(dsts))
	}
}
