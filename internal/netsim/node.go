package netsim

import (
	"fmt"
	"math/bits"

	"dtdctcp/internal/sim"
)

// Node is anything packets can arrive at: a switch or a host.
type Node interface {
	// ID returns the node's identifier within its network.
	ID() NodeID
	// Receive handles a packet that finished propagation on an inbound
	// link.
	Receive(pkt *Packet)
	// Name returns a human-readable label for traces.
	Name() string
}

// Endpoint is a transport attached to a host; the host delivers every
// packet of the endpoint's flow to it.
type Endpoint interface {
	// Deliver hands the endpoint an arrived packet.
	Deliver(pkt *Packet)
}

// Listener opens endpoints on demand: a passive open. A host calls its
// listener only for a packet whose flow has no registered endpoint. The
// listener returns an endpoint it has just opened and registered on h for
// pkt's flow — h then delivers pkt to it — or nil, and h refuses the
// packet as it refuses any packet of an unknown flow. It runs on h's
// event wheel.
type Listener func(h *Host, pkt *Packet) Endpoint

// Switch is an output-queued store-and-forward switch with static routes.
type Switch struct {
	id    NodeID
	name  string
	net   *Network
	ports []*Port
	// portIdx maps a directly attached peer to its port index, built at
	// wiring time so PortTo stays O(1) per lookup even on fat-tree
	// switches with dozens of ports.
	portIdx map[NodeID]int
	// fwd is the forwarding table, indexed by destination NodeID and built
	// whole by ComputeRoutes/ComputeRoutesECMP, read-only afterwards:
	// k > 0 names output port k−1, k < 0 the equal-cost set sets[−k−1],
	// and 0 — as for every id past the end — means no route.
	fwd []int32
	// sets holds the switch's distinct ECMP sets, each stored once however
	// many destinations share it. Sets are ordered by port index so path
	// selection is a pure function of (hashSalt, switch id, flow id).
	sets [][]int32
	// hashSalt seeds the ECMP flow hash; drawn once per topology from
	// the engine's seeded source so path placement varies with the run
	// seed.
	hashSalt uint64
	// droppedNoRoute counts packets with no matching route.
	droppedNoRoute uint64
}

// ID implements Node.
func (s *Switch) ID() NodeID { return s.id }

// Name implements Node.
func (s *Switch) Name() string { return s.name }

// Port returns the i-th port in attachment order.
func (s *Switch) Port(i int) *Port { return s.ports[i] }

// Ports returns the number of attached ports.
func (s *Switch) Ports() int { return len(s.ports) }

// PortTo returns the port whose link leads directly to peer, or nil.
func (s *Switch) PortTo(peer NodeID) *Port {
	if i, ok := s.portIdx[peer]; ok {
		return s.ports[i]
	}
	return nil
}

// egress resolves the packet's output port index: the ECMP set when the
// destination has several equal-cost next hops, the static route
// otherwise. ECMP selection hashes (topology salt, switch id, flow id),
// so a flow's path is fixed for its lifetime.
//
//dtlint:hotpath
func (s *Switch) egress(pkt *Packet) (int, bool) {
	// One unsigned compare refuses negative ids and ids past the table: a
	// NodeID of another Network, a host added after route computation.
	if uint(pkt.Dst) >= uint(len(s.fwd)) {
		return 0, false
	}
	k := s.fwd[pkt.Dst]
	if k < 0 {
		set := s.sets[-k-1]
		h := ecmpHash(s.hashSalt, uint64(s.id), uint64(pkt.Flow))
		return int(set[h%uint64(len(set))]), true
	}
	return int(k) - 1, k != 0
}

// ecmpHash mixes the topology salt, the switch identity, and the flow
// identity with a splitmix64-style finalizer. Including the switch id
// decorrelates consecutive hops (no path polarization: downstream
// switches do not all make the same choice), and the salt makes
// placement a function of the run seed.
//
//dtlint:hotpath
func ecmpHash(salt, swID, flow uint64) uint64 {
	z := salt ^ swID*0x9e3779b97f4a7c15 ^ flow*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// Receive implements Node: forward on the route — or the ECMP hash — for
// the packet's destination.
//
//dtlint:hotpath
func (s *Switch) Receive(pkt *Packet) {
	idx, ok := s.egress(pkt)
	if !ok {
		s.droppedNoRoute++
		s.net.FreePacket(pkt)
		return
	}
	s.ports[idx].Send(pkt)
}

// DroppedNoRoute reports packets discarded for lack of a route.
func (s *Switch) DroppedNoRoute() uint64 { return s.droppedNoRoute }

// flowTable is a host's demultiplexer, FlowID → Endpoint: an open-addressed
// table with linear probing, deletion by backward shift (no tombstones, so
// a host that churns connections probes no further than one that never
// did), a power-of-two capacity kept at most half full, never shrunk. The
// first table has two slots, room for the one flow most hosts of a
// dumbbell ever terminate; a host that serves more doubles it. A slot is
// empty iff its ep is nil. Register and Unregister run once per
// connection, get once per delivered packet.
type flowTable struct {
	slots []flowSlot
	n     int
	// shift turns the 64-bit hash into a slot index: 64 − log2(len(slots)).
	shift uint
}

type flowSlot struct {
	flow FlowID
	ep   Endpoint
}

// home is the slot a flow hashes to. Flow ids are mostly consecutive
// integers (negative for injected background traffic); the Fibonacci
// multiplier spreads a run of them evenly over any power of two.
//
//dtlint:hotpath
func (t *flowTable) home(flow FlowID) uint {
	return uint(uint64(flow) * 0x9e3779b97f4a7c15 >> t.shift)
}

// get returns the flow's endpoint, or nil.
//
//dtlint:hotpath
func (t *flowTable) get(flow FlowID) Endpoint {
	if t.n == 0 {
		return nil
	}
	mask := uint(len(t.slots) - 1)
	// Half the slots are empty, so the probe ends.
	for i := t.home(flow); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ep == nil || s.flow == flow {
			return s.ep
		}
	}
}

// put stores a flow known to be absent, doubling the table first if it
// would pass half full.
func (t *flowTable) put(flow FlowID, ep Endpoint) {
	if 2*(t.n+1) > len(t.slots) {
		t.resize(max(2, 2*len(t.slots)))
	}
	mask := uint(len(t.slots) - 1)
	i := t.home(flow)
	for t.slots[i].ep != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = flowSlot{flow: flow, ep: ep}
	t.n++
}

// reserve grows the table, once, so that n more flows fit without another
// doubling.
func (t *flowTable) reserve(n int) {
	size := len(t.slots)
	for 2*(t.n+n) > size {
		size = max(2, 2*size)
	}
	if size > len(t.slots) {
		t.resize(size)
	}
}

// resize rehashes the table into size slots, a power of two.
func (t *flowTable) resize(size int) {
	old := t.slots
	t.slots = make([]flowSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.n = 0
	for _, s := range old {
		if s.ep != nil {
			t.put(s.flow, s.ep)
		}
	}
}

// del removes the flow if present: it empties the slot, then walks the
// rest of the cluster moving back every entry whose home lies at or
// before the hole, so no lookup ever has to cross an empty slot.
//
//dtlint:hotpath
func (t *flowTable) del(flow FlowID) {
	if t.n == 0 {
		return
	}
	mask := uint(len(t.slots) - 1)
	i := t.home(flow)
	for t.slots[i].flow != flow || t.slots[i].ep == nil {
		if t.slots[i].ep == nil {
			return
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j].ep != nil; j = (j + 1) & mask {
		// The entry at j may move to the hole at i iff its home is not
		// cyclically inside (i, j]: its probe distance reaches back to i.
		if (j-t.home(t.slots[j].flow))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = flowSlot{}
	t.n--
}

// Host is a leaf node with a single uplink and a set of transport
// endpoints keyed by flow.
type Host struct {
	id        NodeID
	name      string
	net       *Network
	uplink    *Port
	endpoints flowTable
	// listener, when set, is consulted for a packet the table has no
	// endpoint for.
	listener Listener
	// droppedNoFlow counts packets for unknown flows.
	droppedNoFlow uint64
}

// ID implements Node.
func (h *Host) ID() NodeID { return h.id }

// Name implements Node.
func (h *Host) Name() string { return h.name }

// Uplink returns the host's single outbound port. It is nil until the
// host is connected.
func (h *Host) Uplink() *Port { return h.uplink }

// Network returns the network the host belongs to.
func (h *Host) Network() *Network { return h.net }

// Engine returns the event wheel this host's endpoints schedule on: the
// network's engine.
func (h *Host) Engine() *sim.Engine { return h.net.engine }

// AllocPacket returns a zeroed packet from the network's free list.
//
//dtlint:hotpath
func (h *Host) AllocPacket() *Packet { return h.net.pool.get() }

// Register attaches a transport endpoint for a flow. Registering a second
// endpoint for the same flow, or a nil one, panics: it is always a
// harness bug.
func (h *Host) Register(flow FlowID, ep Endpoint) {
	if ep == nil {
		panic(fmt.Sprintf("netsim: nil endpoint for flow %d on %s", flow, h.name))
	}
	if h.endpoints.get(flow) != nil {
		panic(fmt.Sprintf("netsim: duplicate endpoint for flow %d on %s", flow, h.name))
	}
	h.endpoints.put(flow, ep)
}

// Unregister detaches the endpoint for a flow; an unknown flow is a
// no-op. An endpoint may unregister itself, or register others, from
// inside its own Deliver.
//
//dtlint:hotpath
func (h *Host) Unregister(flow FlowID) { h.endpoints.del(flow) }

// Listen makes l the host's listener, or clears the listener when l is
// nil. A host carries at most one: setting a second panics, as a
// duplicate Register does.
func (h *Host) Listen(l Listener) {
	if l != nil && h.listener != nil {
		panic(fmt.Sprintf("netsim: %s already has a listener", h.name))
	}
	h.listener = l
}

// ReserveEndpoints sizes the host's flow table, once, for n more endpoints
// than it holds now, so a caller that knows how many flows it will
// register does not regrow the table through every smaller size.
func (h *Host) ReserveEndpoints(n int) { h.endpoints.reserve(n) }

// EndpointCapacity reports how many endpoints the host's flow table holds
// before it next grows. The table never shrinks, so this follows the most
// endpoints ever registered at once.
func (h *Host) EndpointCapacity() int { return len(h.endpoints.slots) / 2 }

// Send stamps the packet's source and pushes it onto the uplink.
//
//dtlint:hotpath
func (h *Host) Send(pkt *Packet) {
	pkt.Src = h.id
	h.uplink.Send(pkt)
}

// Receive implements Node: deliver to the flow's endpoint, or to the one
// the listener opens for it. Delivery is a pooled packet's terminal
// point — the network recycles it when Deliver returns, so endpoints must
// copy out anything they keep.
//
//dtlint:hotpath
func (h *Host) Receive(pkt *Packet) {
	ep := h.endpoints.get(pkt.Flow)
	if ep == nil && h.listener != nil {
		ep = h.listener(h, pkt)
	}
	if ep == nil {
		h.droppedNoFlow++
		h.net.pool.put(pkt)
		return
	}
	ep.Deliver(pkt)
	h.net.pool.put(pkt)
}

// DroppedNoFlow reports packets discarded for lack of an endpoint.
func (h *Host) DroppedNoFlow() uint64 { return h.droppedNoFlow }
