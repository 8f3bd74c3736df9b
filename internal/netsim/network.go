package netsim

import (
	"fmt"
	"slices"

	"dtdctcp/internal/sim"
)

// Network is a collection of nodes and directed links plus static routes.
// Build a topology with AddHost/AddSwitch/Connect, then call ComputeRoutes
// once before starting traffic.
type Network struct {
	engine   *sim.Engine
	nodes    []Node
	hosts    []*Host
	switches []*Switch
	// adjacency lists the neighbours of each node in attachment order,
	// mirrored by the switch port slices.
	adjacency map[NodeID][]NodeID
	// pool recycles packets across the whole topology; see AllocPacket.
	pool packetPool
}

// NewNetwork creates an empty topology bound to the engine.
func NewNetwork(engine *sim.Engine) *Network {
	return &Network{engine: engine, adjacency: make(map[NodeID][]NodeID)}
}

// Engine returns the simulation engine the network runs on.
func (n *Network) Engine() *sim.Engine { return n.engine }

// AddHost creates a host node.
func (n *Network) AddHost(name string) *Host {
	h := &Host{
		id:   NodeID(len(n.nodes)),
		name: name,
		net:  n,
	}
	n.nodes = append(n.nodes, h)
	n.hosts = append(n.hosts, h)
	return h
}

// AddSwitch creates a switch node.
func (n *Network) AddSwitch(name string) *Switch {
	s := &Switch{
		id:      NodeID(len(n.nodes)),
		name:    name,
		net:     n,
		portIdx: make(map[NodeID]int),
	}
	n.nodes = append(n.nodes, s)
	n.switches = append(n.switches, s)
	return s
}

// Hosts returns the hosts in creation order (shared slice; do not mutate).
func (n *Network) Hosts() []*Host { return n.hosts }

// Switches returns the switches in creation order (shared slice; do not
// mutate).
func (n *Network) Switches() []*Switch { return n.switches }

// Connect joins two nodes with a full-duplex link: ab configures the a→b
// direction (the port on a), ba the b→a direction. Hosts accept exactly
// one connection.
func (n *Network) Connect(a, b Node, ab, ba PortConfig) error {
	if a.ID() == b.ID() {
		return fmt.Errorf("netsim: cannot link %s to itself", a.Name())
	}
	// Both directions are checked before either is attached, so a
	// refused link leaves no half-built port behind.
	if err := canAttach(a, b); err != nil {
		return err
	}
	if err := canAttach(b, a); err != nil {
		return err
	}
	n.attach(a, b, ab)
	n.attach(b, a, ba)
	n.adjacency[a.ID()] = append(n.adjacency[a.ID()], b.ID())
	n.adjacency[b.ID()] = append(n.adjacency[b.ID()], a.ID())
	return nil
}

// canAttach reports why from cannot take a port towards to, if it
// cannot: a host already has its one uplink, or a switch already links
// to that peer.
func canAttach(from, to Node) error {
	switch node := from.(type) {
	case *Host:
		if node.uplink != nil {
			return fmt.Errorf("netsim: host %s already connected", node.name)
		}
	case *Switch:
		if _, dup := node.portIdx[to.ID()]; dup {
			return fmt.Errorf("netsim: duplicate link %s → %s", node.name, to.Name())
		}
	default:
		return fmt.Errorf("netsim: unknown node type %T", from)
	}
	return nil
}

// attach gives from a port towards to; canAttach must have passed.
func (n *Network) attach(from, to Node, cfg PortConfig) {
	port := newPort(n, cfg, to)
	switch node := from.(type) {
	case *Host:
		node.uplink = port
	case *Switch:
		node.portIdx[to.ID()] = len(node.ports)
		node.ports = append(node.ports, port)
	}
}

// ComputeRoutes fills every switch's forwarding table with shortest
// paths (hop count, BFS); among equal-cost next hops the lowest port
// index wins. It must be called after the topology is complete and
// before any traffic is sent. It also stamps every port with its stable
// domain index (see stampDomains).
func (n *Network) ComputeRoutes() error { return n.computeRoutes(0, false) }

// stampDomains writes a stable domain index onto every port — hosts in
// creation order, then switch ports in switch × attachment order — which
// the port ships its deliveries under, so same-instant deliveries from
// different ports tie-break by the topology (see Port.ship).
func (n *Network) stampDomains() {
	d := 0
	for _, h := range n.hosts {
		if h.uplink != nil {
			h.uplink.srcKey = int32(d)
		}
		d++
	}
	for _, s := range n.switches {
		for _, p := range s.ports {
			p.srcKey = int32(d)
			d++
		}
	}
}

// ComputeRoutesECMP fills the routing tables like ComputeRoutes, but
// keeps every equal-cost shortest next hop instead of only the first: a
// destination with two or more tied first hops gets an ECMP set, and
// each switch resolves a packet's egress by hashing (salt, switch id,
// flow id) over it — see Switch.egress. The salt should come from the
// topology's seeded engine so placement is a pure function of the run
// seed; ECMP sets are ordered by port index, so the choice is
// reproducible. Like ComputeRoutes, it must be called after the topology
// is complete and before any traffic.
func (n *Network) ComputeRoutesECMP(salt uint64) error { return n.computeRoutes(salt, true) }

// computeRoutes builds every switch's forwarding table from scratch, so
// a second computation on one network leaves nothing of the first.
func (n *Network) computeRoutes(salt uint64, multipath bool) error {
	n.stampDomains()
	// dist[x] = hops from node x to the current destination along paths
	// whose interior nodes are switches. Computed by BFS outward from the
	// destination over the (symmetric) adjacency; hosts other than the
	// destination take a distance but are never expanded, because they do
	// not forward.
	dist := make([]int, len(n.nodes))
	queue := make([]NodeID, 0, len(n.nodes))
	for _, s := range n.switches {
		s.hashSalt = salt
		s.fwd = make([]int32, len(n.nodes))
		s.sets = nil
	}
	var set []int32
	for _, dstNode := range n.nodes {
		dst := dstNode.ID()
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		// Pop by head index: reslicing would use up the queue's front
		// capacity, and each destination's search would re-grow it.
		queue = append(queue[:0], dst)
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			if cur != dst {
				if _, isHost := n.nodes[cur].(*Host); isHost {
					continue
				}
			}
			for _, nb := range n.adjacency[cur] {
				if dist[nb] < 0 {
					dist[nb] = dist[cur] + 1
					queue = append(queue, nb)
				}
			}
		}
		for _, s := range n.switches {
			if s.id == dst {
				continue
			}
			if dist[s.id] < 0 {
				return fmt.Errorf("netsim: no path from %s to %s", s.Name(), dstNode.Name())
			}
			set = set[:0]
			for i, p := range s.ports {
				peer := p.peer.ID()
				if dist[peer] != dist[s.id]-1 {
					continue
				}
				if peer != dst {
					if _, isHost := n.nodes[peer].(*Host); isHost {
						continue // hosts do not forward
					}
				}
				set = append(set, int32(i))
			}
			switch {
			case len(set) == 0:
				return fmt.Errorf("netsim: inconsistent adjacency at %s", s.Name())
			case len(set) == 1 || !multipath:
				s.fwd[dst] = set[0] + 1
			default:
				s.fwd[dst] = -int32(s.internSet(set)) - 1
			}
		}
	}
	return nil
}

// internSet returns the index in s.sets of the ECMP set equal to set,
// adding a copy when the switch has none: a fat-tree edge switch reaches
// every remote host over the same uplinks, and stores them once.
func (s *Switch) internSet(set []int32) int {
	for i, have := range s.sets {
		if slices.Equal(have, set) {
			return i
		}
	}
	s.sets = append(s.sets, slices.Clone(set))
	return len(s.sets) - 1
}
