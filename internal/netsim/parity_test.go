package netsim_test

import (
	"slices"
	"testing"
	"time"

	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/topo"
)

// TestForwardingMatchesReference holds the forwarding table to the rule
// DESIGN.md "Deterministic ECMP" states, worked out here from nothing but
// the wiring: the next hops of switch s toward dst are the ports, in index
// order, whose peer is one hop nearer dst (hop counts by BFS from dst;
// hosts other than dst do not forward), and a flow takes
// hops[ecmpHash(salt, s, flow) mod len(hops)]. Every switch × destination
// × 64 flow ids, on the k=4 fat-tree and on a leaf-spine with two spines.
// testFabrics builds the k=4 fat-tree and a leaf-spine with two spines.
func testFabrics() map[string]func(*netsim.Network) (*topo.Fabric, error) {
	link := topo.LinkSpec{Rate: netsim.Gbps, Delay: 10 * time.Microsecond, BufferBytes: 100 * 1500}
	cfg := topo.Config{HostLink: link, FabricLink: link}
	return map[string]func(*netsim.Network) (*topo.Fabric, error){
		"fattree k=4":     func(nw *netsim.Network) (*topo.Fabric, error) { return topo.FatTree(nw, 4, cfg) },
		"leafspine 4x2x2": func(nw *netsim.Network) (*topo.Fabric, error) { return topo.LeafSpine(nw, 4, 2, 2, cfg) },
	}
}

func TestForwardingMatchesReference(t *testing.T) {
	for name, build := range testFabrics() {
		nw := netsim.NewNetwork(sim.NewEngine(5))
		f, err := build(nw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nodes := len(nw.Hosts()) + len(nw.Switches())
		isHost := make([]bool, nodes)
		peers := make([][]netsim.NodeID, nodes) // by port index; a host has its uplink only
		for _, h := range nw.Hosts() {
			isHost[h.ID()] = true
			peers[h.ID()] = []netsim.NodeID{h.Uplink().Peer().ID()}
		}
		for _, s := range nw.Switches() {
			for i := 0; i < s.Ports(); i++ {
				peers[s.ID()] = append(peers[s.ID()], s.Port(i).Peer().ID())
			}
		}
		multipath := 0
		for dst := netsim.NodeID(0); int(dst) < nodes; dst++ {
			dist := make([]int, nodes)
			for i := range dist {
				dist[i] = -1
			}
			dist[dst] = 0
			for wave := []netsim.NodeID{dst}; len(wave) > 0; wave = wave[1:] {
				cur := wave[0]
				if isHost[cur] && cur != dst {
					continue
				}
				for _, nb := range peers[cur] {
					if dist[nb] < 0 {
						dist[nb] = dist[cur] + 1
						wave = append(wave, nb)
					}
				}
			}
			for _, s := range nw.Switches() {
				var hops []int
				for i, peer := range peers[s.ID()] {
					if dist[peer] == dist[s.ID()]-1 && (peer == dst || !isHost[peer]) {
						hops = append(hops, i)
					}
				}
				if len(hops) > 1 {
					multipath++
				}
				for flow := netsim.FlowID(1); flow <= 64; flow++ {
					got, ok := s.Egress(&netsim.Packet{Flow: flow, Dst: dst})
					if s.ID() == dst {
						if ok {
							t.Fatalf("%s: %s has a route to itself", name, s.Name())
						}
						continue
					}
					want := hops[netsim.ECMPHash(f.Salt, uint64(s.ID()), uint64(flow))%uint64(len(hops))]
					if !ok || got != want {
						t.Fatalf("%s: %s → node %d, flow %d: egress port %d (ok=%v), reference says %d of %v",
							name, s.Name(), dst, flow, got, ok, want, hops)
					}
				}
			}
		}
		if multipath == 0 {
			t.Fatalf("%s: no switch has several next hops toward anything; the hash went unchecked", name)
		}
	}
}

// TestDomainNumbering pins the source keys ComputeRoutes stamps on the
// ports, which order same-instant link deliveries: each host's uplink
// ships under the host's creation index, and switch ports follow in
// switch × attachment order. On a star and on the fabrics every port's key
// is its own — so one port's deliveries are ordered by the engine's
// sequence number alone — and a second route computation leaves every key
// where it was.
func TestDomainNumbering(t *testing.T) {
	link := netsim.PortConfig{Rate: netsim.Gbps, Delay: 25 * time.Microsecond, Buffer: 64 * 1500}
	builds := map[string]func(*netsim.Network) (*topo.Fabric, error){
		"star": func(nw *netsim.Network) (*topo.Fabric, error) {
			sw := nw.AddSwitch("sw")
			for _, name := range []string{"a", "b"} {
				h := nw.AddHost(name)
				if err := nw.Connect(h, sw, link, link); err != nil {
					return nil, err
				}
				if got := h.Uplink().SrcKey(); got != -1 {
					t.Fatalf("star: uplink srcKey %d before routes are computed, want -1 (unkeyed)", got)
				}
			}
			return nil, nw.ComputeRoutes()
		},
	}
	for name, build := range testFabrics() {
		builds[name] = build
	}
	for name, build := range builds {
		nw := netsim.NewNetwork(sim.NewEngine(5))
		if _, err := build(nw); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		keys := portKeys(nw)
		for i, k := range keys {
			if k != i {
				t.Fatalf("%s: port %d (hosts' uplinks, then switch ports) ships under srcKey %d, want %d", name, i, k, i)
			}
		}
		if err := nw.ComputeRoutesECMP(7); err != nil {
			t.Fatal(err)
		}
		if again := portKeys(nw); !slices.Equal(again, keys) {
			t.Fatalf("%s: a second route computation moved the srcKeys to %v", name, again)
		}
	}
}

// portKeys lists the srcKey of every port: the hosts' uplinks, then the
// switch ports.
func portKeys(nw *netsim.Network) []int {
	var keys []int
	for _, h := range nw.Hosts() {
		keys = append(keys, h.Uplink().SrcKey())
	}
	for _, s := range nw.Switches() {
		for i := 0; i < s.Ports(); i++ {
			keys = append(keys, s.Port(i).SrcKey())
		}
	}
	return keys
}
