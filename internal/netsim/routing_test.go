package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"dtdctcp/internal/sim"
)

// Property: on any random tree of switches with hosts hanging off random
// switches, every host can reach every other host, and no switch ever
// reports a missing route.
func TestPropertyRoutingOnRandomTrees(t *testing.T) {
	f := func(seed int64, swRaw, hostRaw uint8) bool {
		nSwitches := int(swRaw%6) + 1
		nHosts := int(hostRaw%6) + 2
		rng := rand.New(rand.NewSource(seed))

		e := sim.NewEngine(1)
		n := NewNetwork(e)
		cfg := PortConfig{Rate: Gbps, Delay: time.Microsecond, Buffer: 1 << 20}

		switches := make([]*Switch, nSwitches)
		for i := range switches {
			switches[i] = n.AddSwitch("sw")
			if i > 0 {
				// Attach to a random earlier switch: uniform random tree.
				parent := switches[rng.Intn(i)]
				if err := n.Connect(switches[i], parent, cfg, cfg); err != nil {
					return false
				}
			}
		}
		hosts := make([]*Host, nHosts)
		for i := range hosts {
			hosts[i] = n.AddHost("h")
			if err := n.Connect(hosts[i], switches[rng.Intn(nSwitches)], cfg, cfg); err != nil {
				return false
			}
		}
		if err := n.ComputeRoutes(); err != nil {
			return false
		}

		// All-pairs delivery.
		delivered := 0
		want := 0
		flow := FlowID(0)
		for _, src := range hosts {
			for _, dst := range hosts {
				if src == dst {
					continue
				}
				flow++
				want++
				rx := &sink{}
				dst.Register(flow, rx)
				src.Send(&Packet{Flow: flow, Dst: dst.ID(), Size: 100})
				if err := e.Run(); err != nil {
					return false
				}
				delivered += len(rx.pkts)
				dst.Unregister(flow)
			}
		}
		for _, sw := range n.Switches() {
			if sw.DroppedNoRoute() != 0 {
				return false
			}
		}
		return delivered == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: in a tree, a packet between two hosts traverses each switch at
// most once (shortest-path routing cannot loop).
func TestRoutingTakesShortestPathInLine(t *testing.T) {
	// Line topology: h0 - s0 - s1 - s2 - h1; the only path has 4 links.
	e := sim.NewEngine(1)
	n := NewNetwork(e)
	cfg := PortConfig{Rate: Gbps, Delay: 10 * time.Microsecond, Buffer: 1 << 20}
	s0 := n.AddSwitch("s0")
	s1 := n.AddSwitch("s1")
	s2 := n.AddSwitch("s2")
	h0 := n.AddHost("h0")
	h1 := n.AddHost("h1")
	for _, pair := range [][2]Node{{h0, s0}, {s0, s1}, {s1, s2}, {s2, h1}} {
		if err := n.Connect(pair[0], pair[1], cfg, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	rx := &sink{eng: e}
	h1.Register(1, rx)
	h0.Send(&Packet{Flow: 1, Dst: h1.ID(), Size: 1000})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rx.pkts) != 1 {
		t.Fatal("not delivered")
	}
	// 4 links × (10 µs propagation + 8 µs serialization of 1000 B at 1 Gbps).
	want := sim.FromDuration(4 * (10*time.Microsecond + 8*time.Microsecond))
	if rx.at[0] != want {
		t.Fatalf("arrival %v, want %v (exactly one traversal per link)", rx.at[0], want)
	}
}
