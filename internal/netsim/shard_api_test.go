package netsim_test

// Exported-API partitioning tests, built on the shared topo.NewStar
// helper: one sender host and one receiver around a switch gives the
// same four shard domains (receiver 0, sender 1, switch ports 2 and 3)
// the in-package buildStar tests use for the unexported internals.

import (
	"slices"
	"testing"
	"time"

	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/topo"
)

func apiStar(t *testing.T, engine *sim.Engine, accessDelay, bneckDelay time.Duration) *topo.Star {
	t.Helper()
	st, err := topo.NewStar(netsim.NewNetwork(engine), topo.StarConfig{
		Senders:    1,
		Access:     netsim.PortConfig{Rate: netsim.Gbps, Delay: accessDelay, Buffer: 64 * 1500},
		Bottleneck: netsim.PortConfig{Rate: netsim.Gbps, Delay: bneckDelay, Buffer: 64 * 1500},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestDefaultAssign(t *testing.T) {
	st := apiStar(t, sim.NewEngine(1), 25*time.Microsecond, 25*time.Microsecond)
	n := st.Net
	// Each host takes the switch port facing it: receiver 0 and port 2 on
	// shard 0, sender 1 and port 3 on shard 1.
	if got, want := n.DefaultAssign(2), []int{0, 1, 0, 1}; !slices.Equal(got, want) {
		t.Fatalf("assign = %v, want %v", got, want)
	}
	if got, want := n.DefaultAssign(2, 3), []int{0, 1, 0, 0}; !slices.Equal(got, want) {
		t.Fatalf("assign with domain 3 pinned = %v, want %v", got, want)
	}
	// More shards than hosts: every domain still lands on a valid shard.
	for _, s := range n.DefaultAssign(5) {
		if s < 0 || s >= 5 {
			t.Fatalf("shards > hosts: domain on shard %d", s)
		}
	}
	// No hosts at all: nothing to spread, everything on shard 0.
	bare := netsim.NewNetwork(sim.NewEngine(1))
	a, b := bare.AddSwitch("a"), bare.AddSwitch("b")
	cfg := netsim.PortConfig{Rate: netsim.Gbps, Delay: time.Microsecond, Buffer: 1500}
	if err := bare.Connect(a, b, cfg, cfg); err != nil {
		t.Fatal(err)
	}
	if got, want := bare.DefaultAssign(2), []int{0, 0}; !slices.Equal(got, want) {
		t.Fatalf("hostless assign = %v, want %v", got, want)
	}
}

// shipsOffShard is the test's own reading of an assignment: a port can
// deliver to another shard when its peer host, or any port of its peer
// switch, is assigned to one.
func shipsOffShard(n *netsim.Network, assign []int, p *netsim.Port, domain int) bool {
	switch peer := p.Peer().(type) {
	case *netsim.Host:
		return assign[n.HostDomain(peer)] != assign[domain]
	case *netsim.Switch:
		for i := 0; i < peer.Ports(); i++ {
			if assign[n.PortDomain(peer.Port(i))] != assign[domain] {
				return true
			}
		}
	}
	return false
}

// TestLeafwardAssign pins the assignment rule on the fabrics it was
// designed for: a pod (or leaf) and every port facing it share a shard,
// and the only ports that can deliver off their shard are the hops into
// the tier that joins the halves.
func TestLeafwardAssign(t *testing.T) {
	link := topo.LinkSpec{Rate: netsim.Gbps, Delay: 10 * time.Microsecond, BufferBytes: 100 * 1500}
	cfg := topo.Config{HostLink: link, FabricLink: link}
	fatTree := func(t *testing.T) *topo.Fabric {
		fab, err := topo.FatTree(netsim.NewNetwork(sim.NewEngine(1)), 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fab
	}
	leafSpine := func(t *testing.T) *topo.Fabric {
		fab, err := topo.LeafSpine(netsim.NewNetwork(sim.NewEngine(1)), 4, 2, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fab
	}
	for _, tc := range []struct {
		name   string
		build  func(*testing.T) *topo.Fabric
		shards int
		// The hosts, and the switches of each lower tier, that share a
		// shard: two pods (or one) of the fat-tree, two leaves.
		hostsPerShard, edgesPerShard int
	}{
		{"fattree-k4", fatTree, 2, 8, 4},
		{"fattree-k4-pod-per-shard", fatTree, 4, 4, 2},
		{"leafspine-4x2x2", leafSpine, 2, 4, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fab := tc.build(t)
			n := fab.Net
			assign := n.DefaultAssign(tc.shards)
			for i, h := range fab.Hosts {
				if got, want := assign[n.HostDomain(h)], i/tc.hostsPerShard; got != want {
					t.Fatalf("host %s on shard %d, want %d", h.Name(), got, want)
				}
			}
			// Every port of an edge-tier or aggregation switch lives on
			// its pod's shard; pods are created in order, so switch i of
			// a tier belongs to group i / edgesPerShard.
			lower := append(append([]*netsim.Switch{}, fab.Edge...), fab.Agg...)
			for i, sw := range lower {
				want := i % len(fab.Edge) / tc.edgesPerShard
				for j := 0; j < sw.Ports(); j++ {
					if got := assign[n.PortDomain(sw.Port(j))]; got != want {
						t.Fatalf("%s port %d on shard %d, want %d", sw.Name(), j, got, want)
					}
				}
			}
			// A core (spine) port lives with the switch it faces.
			for _, p := range fab.CorePorts() {
				below := p.Peer().(*netsim.Switch)
				if got, want := assign[n.PortDomain(p)], assign[n.PortDomain(below.Port(0))]; got != want {
					t.Fatalf("core port facing %s on shard %d, want %d", below.Name(), got, want)
				}
			}
			// Exactly the hops into the core tier can leave their shard.
			intoCore := map[*netsim.Port]bool{}
			for _, sw := range lower {
				for _, c := range fab.Core {
					if p := sw.PortTo(c.ID()); p != nil {
						intoCore[p] = true
					}
				}
			}
			for _, h := range fab.Hosts {
				if shipsOffShard(n, assign, h.Uplink(), n.HostDomain(h)) {
					t.Fatalf("uplink of %s can leave its shard", h.Name())
				}
			}
			for _, sw := range n.Switches() {
				for j := 0; j < sw.Ports(); j++ {
					p := sw.Port(j)
					if got := shipsOffShard(n, assign, p, n.PortDomain(p)); got != intoCore[p] {
						t.Fatalf("%s port %d: can leave its shard = %v, is a hop into the core = %v", sw.Name(), j, got, intoCore[p])
					}
				}
			}
			// A pin overrides the rule for its domain and for no other.
			last := len(assign) - 1
			pinned := n.DefaultAssign(tc.shards, last)
			if assign[last] == 0 || pinned[last] != 0 || !slices.Equal(pinned[:last], assign[:last]) {
				t.Fatalf("pinning domain %d (shard %d): got %v, unpinned %v", last, assign[last], pinned, assign)
			}
		})
	}
}

func TestPartitionValidates(t *testing.T) {
	se := sim.NewShardedEngine(1, 2)
	st := apiStar(t, se.Shard(0), 25*time.Microsecond, 25*time.Microsecond)
	n := st.Net
	if err := n.Partition(se, []int{0}); err == nil {
		t.Fatal("short assignment accepted")
	}
	if err := n.Partition(se, []int{0, 1, 2, 0}); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	good := n.DefaultAssign(2)
	if err := n.Partition(se, good); err != nil {
		t.Fatal(err)
	}
	if !n.Sharded() {
		t.Fatal("network does not report sharded after Partition")
	}
	if err := n.Partition(se, good); err == nil {
		t.Fatal("double partition accepted")
	}
	if got, want := se.Lookahead(), sim.FromDuration(25*time.Microsecond); got != want {
		t.Fatalf("lookahead %v, want %v", got, want)
	}
}

// TestPartitionRejectsZeroDelay: a zero-delay link leaves no lookahead
// when it crosses shards (or when nothing does and it is the shortest
// link), and is an ordinary link when both its ends share a shard while
// another link makes the cut.
func TestPartitionRejectsZeroDelay(t *testing.T) {
	for _, tc := range []struct {
		name   string
		assign []int // receiver, sender, bottleneck port, sender-facing port
		ok     bool
	}{
		{"bottleneck crosses", []int{1, 0, 0, 0}, false},
		{"nothing crosses", []int{0, 0, 0, 0}, false},
		{"bottleneck with its receiver", []int{0, 1, 0, 1}, true},
	} {
		se := sim.NewShardedEngine(1, 2)
		st := apiStar(t, se.Shard(0), 25*time.Microsecond, 0)
		err := st.Net.Partition(se, tc.assign)
		if tc.ok && (err != nil || se.Lookahead() != sim.FromDuration(25*time.Microsecond)) {
			t.Errorf("%s: err %v, lookahead %v; want the 25µs access links to bound the window", tc.name, err, se.Lookahead())
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: zero link delay accepted (no positive lookahead exists)", tc.name)
		}
	}
}
