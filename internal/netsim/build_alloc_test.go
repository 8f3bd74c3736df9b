//go:build !race

package netsim_test

import (
	"testing"
	"time"

	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/topo"
)

// The construction pins: building a network allocates what the run keeps
// and little else. The file is excluded from -race builds, whose runtime
// instruments allocations.

func fatTree(t *testing.T, k int) (*netsim.Network, *topo.Fabric) {
	t.Helper()
	link := topo.LinkSpec{Rate: netsim.Gbps, Delay: 10 * time.Microsecond, BufferBytes: 100 * 1500}
	nw := netsim.NewNetwork(sim.NewEngine(1))
	f, err := topo.FatTree(nw, k, topo.Config{HostLink: link, FabricLink: link})
	if err != nil {
		t.Fatal(err)
	}
	return nw, f
}

// TestComputeRoutesAllocs holds a route computation on the k = 8
// fat-tree (80 switches, 128 hosts) to what it keeps — one forwarding
// table per switch, and per interned ECMP set its copy and the growth of
// the switch's set list — plus a constant for the search's own scratch.
// A BFS queue that re-grows for every destination costs hundreds more.
func TestComputeRoutesAllocs(t *testing.T) {
	nw, f := fatTree(t, 8)
	keep := len(nw.Switches())
	for _, s := range nw.Switches() {
		keep += 2 * s.ECMPSets()
	}
	const scratch = 8
	avg := testing.AllocsPerRun(20, func() {
		if err := nw.ComputeRoutesECMP(f.Salt); err != nil {
			t.Fatal(err)
		}
	})
	if avg > float64(keep+scratch) {
		t.Fatalf("ComputeRoutesECMP on the k=8 fat-tree: %.0f allocations, want at most %d kept + %d scratch",
			avg, keep, scratch)
	}
}

// TestFreshPortsHoldNoRing checks that building a fabric gives no port a
// queue buffer: the ring is sized at a port's first enqueue.
func TestFreshPortsHoldNoRing(t *testing.T) {
	nw, _ := fatTree(t, 4)
	for _, h := range nw.Hosts() {
		if n := h.Uplink().RingSlots(); n != 0 {
			t.Fatalf("%s's uplink holds a %d-slot ring before any enqueue", h.Name(), n)
		}
	}
	for _, s := range nw.Switches() {
		for i := 0; i < s.Ports(); i++ {
			if n := s.Port(i).RingSlots(); n != 0 {
				t.Fatalf("%s port %d holds a %d-slot ring before any enqueue", s.Name(), i, n)
			}
		}
	}
}
